module G = Topo.Graph
module D = Dirsvc.Directory
module Name = Dirsvc.Name
module Seg = Viper.Segment
module Pkt = Viper.Packet
module Route = Sirpent.Route

type error =
  | Unknown_name of Name.t
  | Unreachable
  | Empty_intent
  | Route_too_long

let error_to_string = function
  | Unknown_name n -> "unknown name " ^ Name.to_string n
  | Unreachable -> "no route satisfies the intent"
  | Empty_intent -> "intent normalized to nothing"
  | Route_too_long -> "compiled route exceeds the VIPER segment limit"

type compiled = {
  route : Route.t;
  plain : Route.t;
  hops : G.hop list;
  alternates : Route.t list;
  branch_count : int;
  header_bytes : int;
  plain_header_bytes : int;
}

exception Fail of error

let node_of d name =
  match D.lookup_name d name with
  | Some n -> n
  | None -> raise (Fail (Unknown_name name))

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* Nodes a spec forbids: explicit avoid_nodes, every bound name under an
   avoided region, and — because regions also contain routers no one ever
   registered — any topology node whose dotted graph name sits under the
   region prefix. *)
let banned_nodes d (s : Intent.spec) =
  let g = D.graph d in
  let acc = ref [] in
  let add id = if not (List.mem id !acc) then acc := id :: !acc in
  List.iter (fun n -> add (node_of d n)) s.Intent.avoid_nodes;
  List.iter
    (fun r ->
      List.iter (fun (_, id) -> add id) (D.enumerate_region d r);
      let rs = Name.to_string r in
      let prefix = rs ^ "." in
      G.iter_nodes g (fun id ->
          let nm = G.name g id in
          if nm = rs || starts_with ~prefix nm then add id))
    s.Intent.avoid_regions;
  List.rev !acc

(* Tokens of a directory route's router segments (all but the final local
   one), so a re-assembled multi-leg route keeps the minted tokens. *)
let tokens_of_route (r : Route.t) =
  let rec go = function
    | [] | [ _ ] -> []
    | s :: rest -> s.Seg.token :: go rest
  in
  go r.Route.segments

(* One leg, no constraints: answered by the directory itself — memoized
   SPT, minted tokens, and (for the single-leg case) the exact cached
   answer a plain query would return. *)
let query_leg d ~selector ~priority ~src ~target_name =
  match D.query d ~client:src ~target:target_name ~selector ~k:1 ~priority () with
  | [] -> raise (Fail Unreachable)
  | ri :: _ -> ri

(* One leg under avoid constraints: constrained Dijkstra on the
   directory's graph under the directory's own metric, so ranking is
   consistent with unconstrained legs. No tokens — constrained paths are
   not the directory's answer, so nothing was minted for them. *)
let excluded_leg d ~selector ~src ~dst ~banned =
  let g = D.graph d in
  match
    G.shortest_path_excluding g
      ~metric:(D.route_metric d selector)
      ~src ~dst ~banned_links:[] ~banned_nodes:banned
  with
  | Some (_ :: _ as hops) -> hops
  | Some [] | None -> raise (Fail Unreachable)

(* Replace the segment executed at each balanced node with its logical
   port (token dropped: logical ports are authorized by configuration). *)
let apply_balance d (s : Intent.spec) ~client ~hops (route : Route.t) =
  if s.Intent.balance = [] then route
  else begin
    let g = D.graph d in
    let nodes = Array.of_list (G.route_nodes g ~src:client hops) in
    let balanced = List.map (fun (n, p) -> (node_of d n, p)) s.Intent.balance in
    let nsegs = List.length route.Route.segments in
    let segments =
      List.mapi
        (fun i seg ->
          if i >= nsegs - 1 then seg (* final local-delivery segment *)
          else
            match List.assoc_opt nodes.(i + 1) balanced with
            | Some lport ->
              Seg.make ~flags:seg.Seg.flags ~priority:seg.Seg.priority
                ~port:lport ()
            | None -> seg)
        route.Route.segments
    in
    { route with Route.segments }
  end

let compile_spec d ~client ~target ~selector ~priority (s : Intent.spec) =
  let banned = banned_nodes d s in
  if Intent.spec_is_plain s then begin
    let ri = query_leg d ~selector ~priority ~src:client ~target_name:target in
    (ri.D.hops, ri.D.route)
  end
  else begin
    let g = D.graph d in
    let leg_names = s.Intent.legs @ [ target ] in
    (* (hops, tokens) per leg; a waypoint equal to the current position is
       a satisfied constraint, not a leg *)
    let rec walk src = function
      | [] -> []
      | name :: rest ->
        let dst = node_of d name in
        if dst = src then walk src rest
        else begin
          let leg =
            if banned = [] then begin
              let ri = query_leg d ~selector ~priority ~src ~target_name:name in
              (ri.D.hops, tokens_of_route ri.D.route)
            end
            else
              let hops = excluded_leg d ~selector ~src ~dst ~banned in
              (hops, List.map (fun _ -> Bytes.empty) (List.tl hops))
          in
          leg :: walk dst rest
        end
    in
    match walk client leg_names with
    | [] -> raise (Fail Unreachable) (* client is the target *)
    | (hops0, tokens0) :: rest_legs ->
      let hops = hops0 @ List.concat_map fst rest_legs in
      if List.length hops > Pkt.max_route_segments then raise (Fail Route_too_long);
      (* the junction hop at each waypoint is the next leg's first hop,
         which that leg's own route treats as its source — no token *)
      let tokens =
        tokens0 @ List.concat_map (fun (_, tk) -> Bytes.empty :: tk) rest_legs
      in
      let route = Route.of_hops ~priority ~tokens g ~src:client hops in
      (hops, apply_balance d s ~client ~hops route)
  end

(* The in-header DAG: for each router hop of the primary, precompute the
   best route to the destination that survives that hop's link dying
   (banned under the same avoid sets), and embed it in the segment the
   router will execute. Hops with no surviving alternative (or one that
   would not fit) simply carry no branch. *)
let branch_for d ~selector ~priority ~banned ~dst (hop : G.hop) =
  let g = D.graph d in
  match G.link_via g hop.G.at hop.G.out with
  | None -> None
  | Some l -> (
    match
      G.shortest_path_excluding g
        ~metric:(D.route_metric d selector)
        ~src:hop.G.at ~dst ~banned_links:[ l.G.link_id ] ~banned_nodes:banned
    with
    | None | Some [] -> None
    | Some alt ->
      if List.length alt + 1 > Pkt.max_route_segments then None
      else begin
        let segs =
          List.map (fun h -> Seg.make ~priority ~port:h.G.out ()) alt
          @ [ Seg.make ~priority ~port:Seg.local_port () ]
        in
        let b = Pkt.encode_route_segments segs in
        if Bytes.length b > Seg.max_field then None else Some b
      end)

let attach_branches d ~selector ~priority ~banned ~dst ~hops (route : Route.t) =
  let router_hops =
    match hops with [] -> [||] | _ :: tl -> Array.of_list tl
  in
  let nsegs = List.length route.Route.segments in
  let count = ref 0 in
  let segments =
    List.mapi
      (fun i seg ->
        if i >= nsegs - 1 || i >= Array.length router_hops then seg
        else
          match branch_for d ~selector ~priority ~banned ~dst router_hops.(i) with
          | None -> seg
          | Some b ->
            incr count;
            { seg with Seg.branch = b })
      route.Route.segments
  in
  ({ route with Route.segments }, !count)

let dedupe routes =
  List.rev
    (List.fold_left
       (fun acc r -> if List.exists (Route.equal r) acc then acc else r :: acc)
       [] routes)

let compile d ~client ~target ?(selector = D.Lowest_delay)
    ?(priority = Token.Priority.highest) intent =
  match Intent.normalize intent with
  | [] -> Error Empty_intent
  | specs -> (
    try
      ignore (node_of d target : G.node_id);
      let rec first_ok errs = function
        | [] ->
          raise (Fail (match List.rev errs with e :: _ -> e | [] -> Unreachable))
        | s :: rest -> (
          match compile_spec d ~client ~target ~selector ~priority s with
          | hops_route -> ((s, hops_route), rest)
          | exception Fail e -> first_ok (e :: errs) rest)
      in
      let (spec, (hops, plain)), rest_specs = first_ok [] specs in
      let protect =
        List.length specs > 1 || List.exists (fun (s : Intent.spec) -> s.protected) specs
      in
      let route, branch_count =
        if protect then
          attach_branches d ~selector ~priority ~banned:(banned_nodes d spec)
            ~dst:(node_of d target) ~hops plain
        else (plain, 0)
      in
      let alternates =
        dedupe
          (List.filter_map
             (fun s ->
               match compile_spec d ~client ~target ~selector ~priority s with
               | _, r -> if Route.equal r plain then None else Some r
               | exception Fail _ -> None)
             rest_specs)
      in
      Ok
        {
          route;
          plain;
          hops;
          alternates;
          branch_count;
          header_bytes = Route.header_overhead route;
          plain_header_bytes = Route.header_overhead plain;
        }
    with Fail e -> Error e)
