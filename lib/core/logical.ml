type mapping = Group of Topo.Graph.port list | Splice of Viper.Segment.t list

(* Port-indexed, grown on demand: a router consults it for every frame. *)
type t = { mutable by_port : mapping option array }

let create () = { by_port = [||] }

let set t ~port mapping =
  (match mapping with
  | Group [] -> invalid_arg "Logical.set: empty group"
  | Splice [] -> invalid_arg "Logical.set: empty splice"
  | Group _ | Splice _ -> ());
  if port < 0 then invalid_arg "Logical.set: negative port";
  let n = Array.length t.by_port in
  if port >= n then begin
    let fresh = Array.make (max (port + 1) (2 * n)) None in
    Array.blit t.by_port 0 fresh 0 n;
    t.by_port <- fresh
  end;
  t.by_port.(port) <- Some mapping

let lookup t ~port =
  if port >= 0 && port < Array.length t.by_port then t.by_port.(port) else None
