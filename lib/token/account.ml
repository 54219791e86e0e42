type usage = { packets : int; bytes : int }

type cell = { mutable packets : int; mutable bytes : int }

type t = (int, cell) Hashtbl.t

let create () : t = Hashtbl.create 16

let charge t ~account ~packets ~bytes =
  match Hashtbl.find t account with
  | c ->
    c.packets <- c.packets + packets;
    c.bytes <- c.bytes + bytes
  | exception Not_found -> Hashtbl.replace t account { packets; bytes }

let usage t ~account : usage =
  match Hashtbl.find_opt t account with
  | Some c -> { packets = c.packets; bytes = c.bytes }
  | None -> { packets = 0; bytes = 0 }

let accounts t = Hashtbl.fold (fun k _ acc -> k :: acc) t [] |> List.sort compare

let total t : usage =
  Hashtbl.fold
    (fun _ c (acc : usage) : usage ->
      { packets = acc.packets + c.packets; bytes = acc.bytes + c.bytes })
    t { packets = 0; bytes = 0 }
