(* Tests for the topology graph and path algorithms. *)

module G = Topo.Graph

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let props = G.default_props

let mk_line n =
  let g = G.create () in
  let ids = Array.init n (fun _ -> G.add_node g G.Router) in
  for i = 0 to n - 2 do
    ignore (G.connect g ids.(i) ids.(i + 1) props)
  done;
  (g, ids)

let hop_metric (_ : G.link) = 1.0

let nodes_and_ports () =
  let g = G.create () in
  let a = G.add_node g ~name:"alpha" G.Host in
  let b = G.add_node g G.Router in
  check_int "ids dense" 0 a;
  check_int "ids dense 2" 1 b;
  Alcotest.(check string) "named" "alpha" (G.name g a);
  Alcotest.(check string) "default name" "r1" (G.name g b);
  Alcotest.(check (option int)) "find by name" (Some a) (G.find_by_name g "alpha");
  let pa, pb = G.connect g a b props in
  check_int "ports from 1" 1 pa;
  check_int "ports from 1 (b)" 1 pb;
  check_int "degree" 1 (G.degree g a)

let port_numbering_increments () =
  let g = G.create () in
  let hub = G.add_node g G.Router in
  let others = List.init 5 (fun _ -> G.add_node g G.Router) in
  let ports = List.map (fun n -> fst (G.connect g hub n props)) others in
  Alcotest.(check (list int)) "sequential" [ 1; 2; 3; 4; 5 ] ports

let peer_resolution () =
  let g = G.create () in
  let a = G.add_node g G.Router and b = G.add_node g G.Router in
  let pa, pb = G.connect g a b props in
  match G.link_via g a pa with
  | None -> Alcotest.fail "link missing"
  | Some l ->
    Alcotest.(check (pair int int)) "peer of a" (b, pb) (G.peer l a);
    Alcotest.(check (pair int int)) "peer of b" (a, pa) (G.peer l b)

let disconnect_removes () =
  let g = G.create () in
  let a = G.add_node g G.Router and b = G.add_node g G.Router in
  let pa, _ = G.connect g a b props in
  (match G.link_via g a pa with
  | Some l -> G.disconnect g l
  | None -> Alcotest.fail "link missing");
  Alcotest.(check bool) "gone" true (G.link_via g a pa = None);
  check_int "no links" 0 (List.length (G.links g))

let shortest_path_line () =
  let g, ids = mk_line 5 in
  match G.shortest_path g ~metric:hop_metric ~src:ids.(0) ~dst:ids.(4) with
  | None -> Alcotest.fail "no path"
  | Some hops ->
    check_int "4 hops" 4 (List.length hops);
    let nodes = G.route_nodes g ~src:ids.(0) hops in
    Alcotest.(check (list int)) "node sequence"
      (Array.to_list ids) nodes

let shortest_path_self () =
  let g, ids = mk_line 2 in
  Alcotest.(check (option (list reject))) "self = empty path" (Some [])
    (Option.map (fun l -> List.map (fun _ -> ()) l)
       (G.shortest_path g ~metric:hop_metric ~src:ids.(0) ~dst:ids.(0)))

let shortest_path_unreachable () =
  let g = G.create () in
  let a = G.add_node g G.Router and b = G.add_node g G.Router in
  check_bool "unreachable" true
    (G.shortest_path g ~metric:hop_metric ~src:a ~dst:b = None)

let shortest_path_prefers_cheap () =
  (* triangle with one expensive direct edge *)
  let g = G.create () in
  let a = G.add_node g G.Router
  and b = G.add_node g G.Router
  and c = G.add_node g G.Router in
  ignore (G.connect g a c props) (* link 0: direct *);
  ignore (G.connect g a b props) (* link 1 *);
  ignore (G.connect g b c props) (* link 2 *);
  let metric (l : G.link) = if l.G.link_id = 0 then 10.0 else 1.0 in
  match G.shortest_path g ~metric ~src:a ~dst:c with
  | None -> Alcotest.fail "no path"
  | Some hops ->
    check_int "goes around" 2 (List.length hops);
    Alcotest.(check (list int)) "via b" [ a; b; c ] (G.route_nodes g ~src:a hops)

(* Searches share one frontier per domain: a metric that runs its own
   search mid-search, or raises out of one, must not disturb the next. *)
let shortest_path_nested_and_raising () =
  (* hub -> 3 mids -> one leaf each: while the hub relaxes its links,
     the mids relaxed before are still queued, and every leaf is only
     reached through its queued mid *)
  let g = G.create () in
  let hub = G.add_node g G.Router in
  let leaves =
    List.init 3 (fun _ ->
        let mid = G.add_node g G.Router and leaf = G.add_node g G.Host in
        ignore (G.connect g hub mid props);
        ignore (G.connect g mid leaf props);
        leaf)
  in
  let nested (_ : G.link) =
    ignore (G.shortest_path g ~metric:hop_metric ~src:(List.hd leaves) ~dst:hub);
    1.0
  in
  let spt = G.shortest_path_tree g ~metric:nested ~src:hub in
  List.iter
    (fun leaf ->
      Alcotest.(check (float 0.0)) "leaf two hops out" 2.0 (G.spt_dist spt ~dst:leaf))
    leaves;
  Alcotest.check_raises "non-positive metric"
    (Invalid_argument "Graph: metric must be positive") (fun () ->
      ignore (G.shortest_path_tree g ~metric:(fun _ -> 0.0) ~src:hub));
  let spt = G.shortest_path_tree g ~metric:hop_metric ~src:hub in
  List.iter
    (fun leaf ->
      Alcotest.(check (float 0.0)) "after a raise, same distances" 2.0
        (G.spt_dist spt ~dst:leaf))
    leaves

let k_shortest_distinct () =
  let g = G.create () in
  let a = G.add_node g G.Router
  and b = G.add_node g G.Router
  and c = G.add_node g G.Router
  and d = G.add_node g G.Router in
  ignore (G.connect g a b props);
  ignore (G.connect g b d props);
  ignore (G.connect g a c props);
  ignore (G.connect g c d props);
  let paths = G.k_shortest_paths g ~metric:hop_metric ~src:a ~dst:d ~k:3 in
  check_int "two disjoint paths" 2 (List.length paths);
  let as_nodes p = G.route_nodes g ~src:a p in
  check_bool "distinct" true (as_nodes (List.nth paths 0) <> as_nodes (List.nth paths 1))

let k_shortest_ordering () =
  let g = G.create () in
  let a = G.add_node g G.Router and b = G.add_node g G.Router in
  let c = G.add_node g G.Router in
  ignore (G.connect g a b props);
  ignore (G.connect g a c props);
  ignore (G.connect g c b props);
  let paths = G.k_shortest_paths g ~metric:hop_metric ~src:a ~dst:b ~k:5 in
  check_int "both" 2 (List.length paths);
  let costs = List.map (fun p -> G.path_cost g ~metric:hop_metric p) paths in
  check_bool "nondecreasing" true (List.sort compare costs = costs)

let builders_shape () =
  let g, ids = G.line 4 in
  check_int "line nodes" 4 (G.node_count g);
  check_int "line links" 3 (List.length (G.links g));
  ignore ids;
  let g, hub, leaves = G.star 6 in
  check_int "star nodes" 7 (G.node_count g);
  check_int "hub degree" 6 (G.degree g hub);
  check_int "leaf degree" 1 (G.degree g leaves.(0));
  let g, left, right = G.dumbbell 3 in
  check_int "dumbbell nodes" 8 (G.node_count g);
  check_int "left hosts" 3 (Array.length left);
  check_int "right hosts" 3 (Array.length right)

let dumbbell_bottleneck () =
  let g, left, right = G.dumbbell 2 in
  match G.shortest_path g ~metric:hop_metric ~src:left.(0) ~dst:right.(0) with
  | None -> Alcotest.fail "no path"
  | Some hops -> check_int "3 hops via both routers" 3 (List.length hops)

let campus_builder () =
  let rng = Sim.Rng.create 11L in
  let g, routers, hosts = G.campus_internet ~rng ~campuses:6 ~hosts_per_campus:3 in
  check_int "routers" 6 (Array.length routers);
  check_int "hosts" 18 (Array.length hosts);
  (* every host reaches every other host *)
  let metric = hop_metric in
  let reachable = ref true in
  Array.iter
    (fun h1 ->
      Array.iter
        (fun h2 ->
          if h1 <> h2 && G.shortest_path g ~metric ~src:h1 ~dst:h2 = None then
            reachable := false)
        hosts)
    hosts;
  check_bool "fully reachable" true !reachable

let hierarchical_switch_small () =
  (* small fan-outs hang directly off the root *)
  let g = G.create () in
  let root, leaves = G.hierarchical_switch g ~leaves:10 in
  Alcotest.(check int) "10 leaves" 10 (Array.length leaves);
  Array.iter
    (fun leaf ->
      match G.shortest_path g ~metric:hop_metric ~src:root ~dst:leaf with
      | Some hops -> Alcotest.(check int) "one stage" 1 (List.length hops)
      | None -> Alcotest.fail "leaf unreachable")
    leaves

let hierarchical_switch_large () =
  (* 600 leaves exceed the 255-port limit: an intermediate stage appears,
     no node exceeds the VIPER port budget, and every leaf is reachable *)
  let g = G.create () in
  let root, leaves = G.hierarchical_switch g ~leaves:600 in
  Alcotest.(check int) "600 leaves" 600 (Array.length leaves);
  G.iter_nodes g (fun n -> check_bool "within port budget" true (G.degree g n <= 255));
  let depths =
    Array.map
      (fun leaf ->
        match G.shortest_path g ~metric:hop_metric ~src:root ~dst:leaf with
        | Some hops -> List.length hops
        | None -> -1)
      leaves
  in
  check_bool "all reachable" true (Array.for_all (fun d -> d > 0) depths);
  check_bool "two stages" true (Array.for_all (fun d -> d = 2) depths)

let max_ports_enforced () =
  let g = G.create () in
  let hub = G.add_node g G.Router in
  for _ = 1 to 255 do
    let n = G.add_node g G.Host in
    ignore (G.connect g hub n props)
  done;
  let extra = G.add_node g G.Host in
  Alcotest.check_raises "256th port refused"
    (Failure "Graph.connect: node has 255 ports") (fun () ->
      ignore (G.connect g hub extra props))

let qcheck_random_graph_paths =
  QCheck.Test.make ~name:"dijkstra path is valid and chains" ~count:50
    QCheck.(int_range 2 30)
    (fun n ->
      let rng = Sim.Rng.create (Int64.of_int n) in
      let g = G.create () in
      let ids = Array.init n (fun _ -> G.add_node g G.Router) in
      (* random connected graph: spanning chain + extra edges *)
      for i = 1 to n - 1 do
        ignore (G.connect g ids.(i - 1) ids.(i) props)
      done;
      for _ = 1 to n do
        let a = Sim.Rng.int rng n and b = Sim.Rng.int rng n in
        if a <> b then ignore (G.connect g ids.(a) ids.(b) props)
      done;
      let src = ids.(0) and dst = ids.(n - 1) in
      match G.shortest_path g ~metric:hop_metric ~src ~dst with
      | None -> false
      | Some hops -> (
        match G.route_nodes g ~src hops with
        | nodes -> List.hd (List.rev nodes) = dst
        | exception _ -> false))

(* --- shortest-path trees and the topology version --- *)

let spt_matches_per_query_dijkstra () =
  (* the SPT must reproduce shortest_path bit-for-bit for every
     destination: same hops, same ports, under a non-trivial metric *)
  let rng = Sim.Rng.create 0x51AL in
  let g, _routers, _hosts = G.campus_internet ~rng ~campuses:6 ~hosts_per_campus:3 in
  let metric (l : G.link) =
    Sim.Time.to_seconds l.G.props.G.propagation
    +. (1e3 /. float_of_int l.G.props.G.bandwidth_bps)
  in
  for src = 0 to 5 do
    let spt = G.shortest_path_tree g ~metric ~src in
    check_int "src recorded" src (G.spt_src spt);
    for dst = 0 to G.node_count g - 1 do
      let direct = G.shortest_path g ~metric ~src ~dst in
      let from_tree = G.spt_path spt ~dst in
      check_bool
        (Printf.sprintf "spt(%d->%d) = dijkstra" src dst)
        true
        (direct = from_tree)
    done
  done

let spt_distances_consistent () =
  let g, ids = mk_line 6 in
  let spt = G.shortest_path_tree g ~metric:hop_metric ~src:ids.(0) in
  check_bool "self dist 0" true (G.spt_dist spt ~dst:ids.(0) = 0.0);
  check_bool "5 hops" true (abs_float (G.spt_dist spt ~dst:ids.(5) -. 5.0) < 1e-9);
  (* a node created after the tree: unreachable, not a crash *)
  let late = G.add_node g G.Router in
  check_bool "late node unreachable" true (G.spt_path spt ~dst:late = None);
  check_bool "late node dist inf" true (G.spt_dist spt ~dst:late = infinity)

let version_tracks_link_changes () =
  let g = G.create () in
  let a = G.add_node g G.Router and b = G.add_node g G.Router in
  let v0 = G.version g in
  ignore (G.connect g a b props);
  check_bool "connect bumps" true (G.version g > v0);
  let l = List.hd (G.links g) in
  let v1 = G.version g in
  G.disconnect g l;
  check_bool "disconnect bumps" true (G.version g > v1);
  let v2 = G.version g in
  G.reconnect g l;
  check_bool "reconnect bumps" true (G.version g > v2);
  let v3 = G.version g in
  G.reconnect g l (* no-op: already attached *);
  check_int "no-op reconnect does not bump" v3 (G.version g)

(* A repaired graph is indistinguishable from one never cut: after
   several links go down and come back (in a different order), the link
   list, every node's port list and every shortest-path tree — whose tie
   order follows the port tables — equal those of an untouched twin. *)
let reconnect_restores_order () =
  let build () =
    let g, _, _ =
      G.hierarchical_internet ~rng:(Sim.Rng.create 0x5EEDL) ~branching:3 ~depth:2
        ~hosts:40 ()
    in
    g
  in
  let g = build () and twin = build () in
  let links = Array.of_list (G.links g) in
  let cut = [ links.(2); links.(7); links.(0); links.(30); links.(12) ] in
  List.iter (G.disconnect g) cut;
  List.iter (G.reconnect g) (List.rev cut);
  let ids l = List.map (fun (l : G.link) -> l.G.link_id) l in
  Alcotest.(check (list int)) "links" (ids (G.links twin)) (ids (G.links g));
  let metric (_ : G.link) = 1.0 in
  for n = 0 to G.node_count g - 1 do
    Alcotest.(check (list (pair int int)))
      (Printf.sprintf "ports of %d" n)
      (List.map (fun (p, l) -> (p, l.G.link_id)) (G.ports twin n))
      (List.map (fun (p, l) -> (p, l.G.link_id)) (G.ports g n));
    let spt = G.shortest_path_tree g ~metric ~src:n
    and spt' = G.shortest_path_tree twin ~metric ~src:n in
    for dst = 0 to G.node_count g - 1 do
      if G.spt_path spt ~dst <> G.spt_path spt' ~dst then
        Alcotest.failf "shortest-path tree from %d differs at %d" n dst
    done
  done

let hierarchical_internet_shape () =
  let rng = Sim.Rng.create 0xDEE9L in
  let g, leaves, hosts =
    G.hierarchical_internet ~rng ~branching:3 ~depth:2 ~hosts:40 ()
  in
  check_int "leaf regions" 9 (Array.length leaves);
  check_int "hosts" 40 (Array.length hosts);
  (* routers: 1 root + 3 + 9; every host reachable from every other *)
  check_int "nodes" (1 + 3 + 9 + 40) (G.node_count g);
  let metric (_ : G.link) = 1.0 in
  let p = G.shortest_path g ~metric ~src:hosts.(0) ~dst:hosts.(39) in
  check_bool "connected" true (p <> None);
  (* names spell the region path *)
  check_bool "host name under top" true
    (String.length (G.name g hosts.(0)) > 4
    && String.sub (G.name g hosts.(0)) 0 4 = "top.");
  (* port budget respected even at full fan-out *)
  Array.iter (fun l -> check_bool "leaf ports < 255" true (G.degree g l <= 255)) leaves

(* --- one kernel against the two loops it replaced --- *)

(* The spec: the two Dijkstra loops the kernel replaced, verbatim but
   for reading the relaxation order off [shadow] below rather than the
   graph's private tables: the early-exit search (with bans) and the
   tree, each pushing every relaxed node and settling it when popped. *)

(* A shadow of the graph's per-node order tables, replayed through the
   same history: [None] until a node's second port is attached, then a
   table filled in port order, updated by attach and detach, and rebuilt
   in port order when a link is reconnected. *)
type shadow = {
  mutable attached : (G.port * G.link) list;  (** ascending port *)
  mutable order : (G.port, G.link) Hashtbl.t option;
}

let rebuild sh =
  let tbl = Hashtbl.create 4 in
  List.iter (fun (p, l) -> Hashtbl.replace tbl p l) sh.attached;
  sh.order <- Some tbl

let shadow_attach sh p l =
  sh.attached <- List.merge (fun (p, _) (q, _) -> compare p q) sh.attached [ (p, l) ];
  match sh.order with
  | Some tbl -> Hashtbl.replace tbl p l
  | None -> if p > 1 then rebuild sh

let shadow_of g =
  let sh = Array.init (G.node_count g) (fun _ -> { attached = []; order = None }) in
  (* builders only connect, so link ids are attach order *)
  List.iter
    (fun (l : G.link) ->
      shadow_attach sh.(l.G.a) l.G.a_port l;
      shadow_attach sh.(l.G.b) l.G.b_port l)
    (G.links g);
  sh

let shadow_disconnect g sh (l : G.link) =
  G.disconnect g l;
  List.iter
    (fun (n, p) ->
      sh.(n).attached <- List.filter (fun (q, _) -> q <> p) sh.(n).attached;
      Option.iter (fun tbl -> Hashtbl.remove tbl p) sh.(n).order)
    [ (l.G.a, l.G.a_port); (l.G.b, l.G.b_port) ]

let shadow_reconnect g sh (l : G.link) =
  G.reconnect g l;
  List.iter
    (fun (n, p) ->
      sh.(n).attached <- List.merge (fun (p, _) (q, _) -> compare p q) sh.(n).attached [ (p, l) ];
      if sh.(n).order <> None then rebuild sh.(n))
    [ (l.G.a, l.G.a_port); (l.G.b, l.G.b_port) ]

let spec_iter_links sh u f =
  match sh.(u).order with
  | Some tbl -> Hashtbl.iter f tbl
  | None -> List.iter (fun (p, l) -> f p l) sh.(u).attached

let spec_excluding g sh ~metric ~src ~dst ~banned_links ~banned_nodes =
  let heap = Sim.Heap.create ~dummy:(infinity, -1) in
  let n = G.node_count g in
  let dist = Array.make n infinity in
  let prev = Array.make n None in
  let visited = Array.make n false in
  let seq = ref 0 in
  let push cost v =
    Sim.Heap.push heap ~time:(int_of_float (cost *. 1e6)) ~seq:!seq (cost, v);
    incr seq
  in
  dist.(src) <- 0.0;
  push 0.0 src;
  let finished = ref false in
  while not !finished do
    if Sim.Heap.is_empty heap then finished := true
    else
      let cost, u = Sim.Heap.pop_value heap in
      if (not visited.(u)) && cost <= dist.(u) then begin
        visited.(u) <- true;
        if u = dst then finished := true
        else
          spec_iter_links sh u (fun p (l : G.link) ->
              if not (List.mem l.G.link_id banned_links) then begin
                let v, _ = G.peer l u in
                if (not (List.mem v banned_nodes)) && not visited.(v) then begin
                  let w = metric l in
                  let alt = dist.(u) +. w in
                  if alt < dist.(v) then begin
                    dist.(v) <- alt;
                    prev.(v) <- Some (u, p);
                    push alt v
                  end
                end
              end)
      end
  done;
  if dist.(dst) = infinity then None
  else begin
    let rec build v acc =
      match prev.(v) with
      | None -> acc
      | Some (u, p) -> build u ({ G.at = u; out = p } :: acc)
    in
    Some (build dst [])
  end

let spec_tree g sh ~metric ~src =
  let heap = Sim.Heap.create ~dummy:(infinity, -1) in
  let n = G.node_count g in
  let dist = Array.make n infinity in
  let prev = Array.make n None in
  let visited = Array.make n false in
  let seq = ref 0 in
  let push cost v =
    Sim.Heap.push heap ~time:(int_of_float (cost *. 1e6)) ~seq:!seq (cost, v);
    incr seq
  in
  dist.(src) <- 0.0;
  push 0.0 src;
  let finished = ref false in
  while not !finished do
    if Sim.Heap.is_empty heap then finished := true
    else
      let cost, u = Sim.Heap.pop_value heap in
      if (not visited.(u)) && cost <= dist.(u) then begin
        visited.(u) <- true;
        spec_iter_links sh u (fun p (l : G.link) ->
            let v, _ = G.peer l u in
            if not visited.(v) then begin
              let w = metric l in
              let alt = dist.(u) +. w in
              if alt < dist.(v) then begin
                dist.(v) <- alt;
                prev.(v) <- Some (u, p);
                push alt v
              end
            end)
      end
  done;
  let path dst =
    if dst = src then Some []
    else if dist.(dst) = infinity then None
    else begin
      let rec build v acc =
        match prev.(v) with
        | None -> acc
        | Some (u, p) -> build u ({ G.at = u; out = p } :: acc)
      in
      Some (build dst [])
    end
  in
  (path, fun dst -> if dst = src then 0.0 else dist.(dst))

(* Metrics that tie everywhere, tie in the heap key only, and rarely tie. *)
let spec_metrics rng =
  let jitter = Array.init 4096 (fun _ -> 1.0 +. float_of_int (Sim.Rng.int rng 3)) in
  [
    ("hop", fun (_ : G.link) -> 1.0);
    ("quantized", fun (l : G.link) -> jitter.(l.G.link_id land 4095) *. 1e-7);
    ( "delay",
      fun (l : G.link) ->
        Sim.Time.to_seconds l.G.props.G.propagation
        +. (4096.0 /. float_of_int l.G.props.G.bandwidth_bps) );
  ]

(* [g] against the spec: every tree path and distance from [src], and
   each early-exit search in [searches] (dst, banned links, banned
   nodes). *)
let matches_spec g sh ~src ~searches =
  let rng = Sim.Rng.create (Int64.of_int (src + 1)) in
  List.for_all
    (fun (name, metric) ->
      let spt = G.shortest_path_tree g ~metric ~src in
      let path, dist = spec_tree g sh ~metric ~src in
      let tree_ok =
        List.for_all
          (fun dst ->
            let ok =
              G.spt_path spt ~dst = path dst && Float.equal (G.spt_dist spt ~dst) (dist dst)
            in
            if not ok then Printf.printf "tree %s from %d differs at %d\n" name src dst;
            ok)
          (List.init (G.node_count g) Fun.id)
      in
      tree_ok
      && List.for_all
           (fun (dst, banned_links, banned_nodes) ->
             let ok =
               G.shortest_path_excluding g ~metric ~src ~dst ~banned_links ~banned_nodes
               = spec_excluding g sh ~metric ~src ~dst ~banned_links ~banned_nodes
             in
             if not ok then Printf.printf "search %s %d -> %d differs\n" name src dst;
             ok)
           searches)
    (spec_metrics rng)

let random_searches rng g ~count =
  let n = G.node_count g and links = Array.of_list (G.links g) in
  List.init count (fun _ ->
      let dst = Sim.Rng.int rng n in
      let banned_links =
        if Array.length links = 0 then []
        else List.init (Sim.Rng.int rng 4) (fun _ -> links.(Sim.Rng.int rng (Array.length links)).G.link_id)
      in
      let banned_nodes =
        List.filter (fun v -> v <> dst) (List.init (Sim.Rng.int rng 3) (fun _ -> Sim.Rng.int rng n))
      in
      (dst, banned_links, banned_nodes))

let qcheck_kernel_matches_spec =
  QCheck.Test.make ~name:"one kernel = the two loops it replaced" ~count:60
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Sim.Rng.create (Int64.of_int seed) in
      let g, _, _ =
        if Sim.Rng.int rng 2 = 0 then
          G.hierarchical_internet ~rng ~branching:(2 + Sim.Rng.int rng 3)
            ~depth:(1 + Sim.Rng.int rng 3) ~hosts:(1 + Sim.Rng.int rng 60) ()
        else
          G.campus_internet ~rng ~campuses:(2 + Sim.Rng.int rng 7)
            ~hosts_per_campus:(Sim.Rng.int rng 6)
      in
      let sh = shadow_of g in
      (* half the graphs lose links, and get some of them back *)
      if Sim.Rng.int rng 2 = 0 then begin
        let links = Array.of_list (G.links g) in
        let cut =
          List.sort_uniq compare
            (List.init (1 + Sim.Rng.int rng 6) (fun _ -> Sim.Rng.int rng (Array.length links)))
        in
        List.iter (fun i -> shadow_disconnect g sh links.(i)) cut;
        List.iter
          (fun i -> if Sim.Rng.int rng 2 = 0 then shadow_reconnect g sh links.(i))
          (List.rev cut)
      end;
      let n = G.node_count g in
      List.for_all
        (fun _ ->
          let src = Sim.Rng.int rng n in
          matches_spec g sh ~src ~searches:(random_searches rng g ~count:8))
        (List.init 3 Fun.id))

(* The edges of the one-port rule, each against the spec. *)
let kernel_edge_cases () =
  let rng = Sim.Rng.create 0x0E1L in
  let g, leaves, hosts = G.hierarchical_internet ~rng ~branching:2 ~depth:2 ~hosts:9 () in
  let lonely = G.add_node g G.Host in
  let sh = shadow_of g in
  let h0 = hosts.(0) and h8 = hosts.(8) in
  let no_bans dst = (dst, [], []) in
  check_bool "one-port source" true
    (matches_spec g sh ~src:h0 ~searches:(List.map no_bans [ h8; leaves.(3); lonely ]));
  check_bool "one-port destination, early exit" true
    (matches_spec g sh ~src:leaves.(1) ~searches:[ no_bans h8; no_bans h0 ]);
  check_bool "zero-link source" true
    (matches_spec g sh ~src:lonely ~searches:[ no_bans h0; no_bans lonely ]);
  check_bool "zero-link node unreachable" true
    (G.shortest_path g ~metric:hop_metric ~src:h0 ~dst:lonely = None);
  check_bool "banned one-port destination" true
    (matches_spec g sh ~src:h0 ~searches:[ (h8, [], [ h8 ]) ]);
  check_bool "banned one-port destination unreachable" true
    (G.shortest_path_excluding g ~metric:hop_metric ~src:h0 ~dst:h8 ~banned_links:[]
       ~banned_nodes:[ h8 ]
    = None);
  let g, ids = G.line 5 in
  let sh = shadow_of g in
  check_bool "one-port router at a line's end" true
    (matches_spec g sh ~src:ids.(2) ~searches:[ no_bans ids.(4); no_bans ids.(0) ]);
  check_bool "from a line's end" true
    (matches_spec g sh ~src:ids.(0) ~searches:[ no_bans ids.(4); (ids.(4), [], [ ids.(3) ]) ])

(* A tree over the dir_zipf-shaped graph (156 routers, 20 000 one-port
   hosts) allocates its two node-indexed arrays, a visited bitmap and a
   few words per router; the constant metric allocates nothing itself. *)
let tree_allocation () =
  let g, _, hosts =
    G.hierarchical_internet ~rng:(Sim.Rng.create 3L) ~branching:5 ~depth:3 ~hosts:20_000 ()
  in
  let words () =
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  ignore (G.shortest_path_tree g ~metric:hop_metric ~src:hosts.(0));
  let trees = 10 in
  let w0 = words () in
  for i = 1 to trees do
    ignore (Sys.opaque_identity (G.shortest_path_tree g ~metric:hop_metric ~src:hosts.(i)))
  done;
  let per_node = (words () -. w0) /. float_of_int (trees * G.node_count g) in
  if per_node > 3.0 then Alcotest.failf "%.2f words per node per tree (> 3)" per_node

let () =
  Alcotest.run "topo"
    [
      ( "graph",
        [
          Alcotest.test_case "nodes and ports" `Quick nodes_and_ports;
          Alcotest.test_case "port numbering" `Quick port_numbering_increments;
          Alcotest.test_case "peer resolution" `Quick peer_resolution;
          Alcotest.test_case "disconnect" `Quick disconnect_removes;
          Alcotest.test_case "max 255 ports" `Quick max_ports_enforced;
        ] );
      ( "paths",
        [
          Alcotest.test_case "line shortest path" `Quick shortest_path_line;
          Alcotest.test_case "src=dst" `Quick shortest_path_self;
          Alcotest.test_case "unreachable" `Quick shortest_path_unreachable;
          Alcotest.test_case "prefers cheap" `Quick shortest_path_prefers_cheap;
          Alcotest.test_case "nested and raising searches" `Quick
            shortest_path_nested_and_raising;
          Alcotest.test_case "k-shortest distinct" `Quick k_shortest_distinct;
          Alcotest.test_case "k-shortest ordered" `Quick k_shortest_ordering;
        ] );
      ( "builders",
        [
          Alcotest.test_case "shapes" `Quick builders_shape;
          Alcotest.test_case "dumbbell bottleneck" `Quick dumbbell_bottleneck;
          Alcotest.test_case "campus internetwork" `Quick campus_builder;
          Alcotest.test_case "hierarchical switch (small)" `Quick hierarchical_switch_small;
          Alcotest.test_case "hierarchical switch (large)" `Quick hierarchical_switch_large;
        ] );
      ( "spt",
        [
          Alcotest.test_case "matches per-query dijkstra" `Quick
            spt_matches_per_query_dijkstra;
          Alcotest.test_case "distances" `Quick spt_distances_consistent;
          Alcotest.test_case "version tracks links" `Quick version_tracks_link_changes;
          Alcotest.test_case "reconnect restores order" `Quick reconnect_restores_order;
          Alcotest.test_case "hierarchical internet shape" `Quick
            hierarchical_internet_shape;
          Alcotest.test_case "one-port edge cases" `Quick kernel_edge_cases;
          Alcotest.test_case "tree allocation" `Quick tree_allocation;
        ] );
      ( "properties",
        List.map Seeded.to_alcotest
          [ qcheck_random_graph_paths; qcheck_kernel_matches_spec ] );
    ]
