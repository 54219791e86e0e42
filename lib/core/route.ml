module G = Topo.Graph
module Seg = Viper.Segment

type t = { first_port : G.port; segments : Seg.t list }

let of_hops ?(priority = Token.Priority.normal) ?(drop_if_blocked = false)
    ?(tokens = []) _g ~src hops =
  match hops with
  | [] -> invalid_arg "Route.of_hops: empty path"
  | first :: router_hops ->
    if first.G.at <> src then invalid_arg "Route.of_hops: path does not start at src";
    let segment token port = Seg.route_hop ~dib:drop_if_blocked ~priority ~token ~port in
    let local = segment Bytes.empty Seg.local_port in
    (* tokens pair with hops in order; hops past the last token get none *)
    let rec segments hops tokens =
      match (hops, tokens) with
      | [], _ -> [ local ]
      | hop :: hops, token :: tokens -> segment token hop.G.out :: segments hops tokens
      | hop :: hops, [] -> segment Bytes.empty hop.G.out :: segments hops []
    in
    { first_port = first.G.out; segments = segments router_hops tokens }

let hop_count t = List.length t.segments - 1

(* The per-router out-port sequence with the trailing local-delivery
   segment dropped — the shape {!Viper.Xsr.encode} folds into lanes
   (XSR delivery is implicit at [hop_idx = hop_count]). *)
let ports t =
  let rec go = function
    | [] | [ _ ] -> []
    | seg :: rest -> seg.Seg.port :: go rest
  in
  go t.segments

let header_overhead t =
  List.fold_left (fun acc s -> acc + Seg.encoded_size s) 0 t.segments

let equal a b =
  a.first_port = b.first_port && List.equal Seg.equal a.segments b.segments
