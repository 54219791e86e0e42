(* Tests for names and the routing directory service. *)

module G = Topo.Graph
module D = Dirsvc.Directory

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let n = Dirsvc.Name.of_string

(* Names *)

let name_parse_print () =
  check_string "roundtrip" "edu.stanford.cs" (Dirsvc.Name.to_string (n "edu.stanford.cs"));
  check_int "depth" 3 (Dirsvc.Name.depth (n "edu.stanford.cs"));
  Alcotest.check_raises "empty" (Invalid_argument "Name.of_string: empty") (fun () ->
      ignore (n ""));
  Alcotest.check_raises "empty component"
    (Invalid_argument "Name.of_string: empty component") (fun () ->
      ignore (n "edu..cs"))

let name_region () =
  check_string "region" "edu.stanford" (Dirsvc.Name.to_string (Dirsvc.Name.region (n "edu.stanford.cs")));
  check_string "root region" "edu" (Dirsvc.Name.to_string (Dirsvc.Name.region (n "edu")))

let name_distance () =
  check_int "same region" 0
    (Dirsvc.Name.hierarchy_distance (n "edu.stanford.cs.h1") (n "edu.stanford.cs.h2"));
  check_int "sibling regions" 2
    (Dirsvc.Name.hierarchy_distance (n "edu.stanford.cs.h1") (n "edu.stanford.ee.h1"));
  check_int "cross-top" 4
    (Dirsvc.Name.hierarchy_distance (n "edu.stanford.cs.h1") (n "edu.mit.lcs.h1"))

(* A 4-campus internetwork with names. *)
let build () =
  let rng = Sim.Rng.create 99L in
  let g, routers, hosts = G.campus_internet ~rng ~campuses:4 ~hosts_per_campus:2 in
  let dir = D.create g in
  Array.iteri
    (fun i h ->
      D.register dir
        ~name:(n (Printf.sprintf "edu.campus%d.host%d" (i mod 4) i))
        ~node:h)
    hosts;
  (g, routers, hosts, dir)

let query_returns_routes_with_attrs () =
  let _, _, hosts, dir = build () in
  let routes = D.query dir ~client:hosts.(0) ~target:(n "edu.campus1.host5") ~k:2 () in
  check_int "two routes" 2 (List.length routes);
  let first = List.hd routes in
  check_bool "hops nonempty" true (first.D.hops <> []);
  check_int "mtu" 1500 first.D.attrs.D.mtu;
  check_bool "bottleneck bw" true (first.D.attrs.D.bandwidth_bps <= 45_000_000);
  check_bool "rtt estimate positive" true (first.D.attrs.D.rtt_estimate > 0);
  check_bool "ordered by cost" true
    (first.D.attrs.D.cost <= (List.nth routes 1).D.attrs.D.cost)

let query_unknown_name_empty () =
  let _, _, hosts, dir = build () in
  check_int "empty" 0
    (List.length (D.query dir ~client:hosts.(0) ~target:(n "edu.nowhere.hostX") ()))

let tokens_verify_at_routers () =
  let _, _, hosts, dir = build () in
  let routes = D.query dir ~client:hosts.(0) ~target:(n "edu.campus1.host5") ~k:1 () in
  let first = List.hd routes in
  (* each router segment's token must verify under that router's key *)
  let router_hops = List.tl first.D.hops in
  let segments = first.D.route.Sirpent.Route.segments in
  List.iteri
    (fun i hop ->
      let seg = List.nth segments i in
      let tok = Option.get (Token.Capability.of_bytes seg.Viper.Segment.token) in
      let key = Token.Cipher.random_looking_key hop.G.at in
      match Token.Capability.verify key tok with
      | None -> Alcotest.fail "token must verify at its router"
      | Some grant ->
        check_int "token names the hop port" hop.G.out grant.Token.Capability.port;
        check_bool "reverse authorized" true grant.Token.Capability.reverse_ok)
    router_hops

let secure_selector_filters () =
  (* Mark every link insecure except those of one path; Secure must use it
     or return nothing. *)
  let g = G.create () in
  let h1 = G.add_node g G.Host and h2 = G.add_node g G.Host in
  let r1 = G.add_node g G.Router and r2 = G.add_node g G.Router in
  ignore (G.connect g h1 r1 G.default_props) (* link 0 *);
  ignore (G.connect g h1 r2 G.default_props) (* link 1 *);
  ignore (G.connect g r1 h2 G.default_props) (* link 2 *);
  ignore (G.connect g r2 h2 G.default_props) (* link 3 *);
  let dir = D.create g in
  D.register dir ~name:(n "org.dst") ~node:h2;
  D.register dir ~name:(n "org.src") ~node:h1;
  (* only the r2 path is secure *)
  D.set_link_secure dir ~link_id:1 true;
  D.set_link_secure dir ~link_id:3 true;
  let routes = D.query dir ~client:h1 ~target:(n "org.dst") ~selector:D.Secure ~k:4 () in
  check_int "exactly the secure path" 1 (List.length routes);
  let via = G.route_nodes g ~src:h1 (List.hd routes).D.hops in
  check_bool "goes via r2" true (List.mem r2 via);
  (* with no secure links at all: nothing *)
  D.set_link_secure dir ~link_id:1 false;
  check_int "none when no secure path" 0
    (List.length (D.query dir ~client:h1 ~target:(n "org.dst") ~selector:D.Secure ()))

let load_reports_steer_routes () =
  let g = G.create () in
  let h1 = G.add_node g G.Host and h2 = G.add_node g G.Host in
  let r1 = G.add_node g G.Router and r2 = G.add_node g G.Router in
  ignore (G.connect g h1 r1 G.default_props);
  ignore (G.connect g h1 r2 G.default_props);
  let l_r1 = G.connect g r1 h2 G.default_props in
  ignore l_r1;
  ignore (G.connect g r2 h2 { G.default_props with G.propagation = Sim.Time.us 50 });
  let dir = D.create g in
  D.register dir ~name:(n "org.dst") ~node:h2;
  (* Initially the r1 path (5us prop) wins over r2 (50us). *)
  let best () =
    let routes = D.query dir ~client:h1 ~target:(n "org.dst") ~k:1 () in
    G.route_nodes g ~src:h1 (List.hd routes).D.hops
  in
  check_bool "r1 initially" true (List.mem r1 (best ()));
  (* Report heavy load on the r1-h2 link; advisory should switch. *)
  D.report_load dir ~link_id:2 ~utilization:0.95;
  check_bool "steers to r2 under load" true (List.mem r2 (best ()))

let lowest_cost_selector () =
  let g = G.create () in
  let h1 = G.add_node g G.Host and h2 = G.add_node g G.Host in
  let r1 = G.add_node g G.Router and r2 = G.add_node g G.Router in
  ignore (G.connect g h1 r1 G.default_props) (* 0 *);
  ignore (G.connect g h1 r2 G.default_props) (* 1 *);
  ignore (G.connect g r1 h2 G.default_props) (* 2 *);
  ignore (G.connect g r2 h2 G.default_props) (* 3 *);
  let dir = D.create g in
  D.register dir ~name:(n "org.dst") ~node:h2;
  (* make the r1 path administratively expensive *)
  D.set_link_cost dir ~link_id:0 10.0;
  D.set_link_cost dir ~link_id:2 10.0;
  let routes = D.query dir ~client:h1 ~target:(n "org.dst") ~selector:D.Lowest_cost ~k:1 () in
  check_bool "avoids expensive" true
    (List.mem r2 (G.route_nodes g ~src:h1 (List.hd routes).D.hops))

let query_latency_scales_with_hierarchy () =
  let _, _, hosts, dir = build () in
  let near = D.query_latency dir ~client:hosts.(0) ~target:(n "edu.campus0.host4") in
  let far = D.query_latency dir ~client:hosts.(0) ~target:(n "edu.campus2.host2") in
  check_bool "same region cheaper" true (near < far)

(* Client cache *)

let client_caches () =
  let _, _, hosts, dir = build () in
  let engine = Sim.Engine.create () in
  let client = Dirsvc.Client.create engine dir ~node:hosts.(0) in
  let answers = ref 0 in
  let target = n "edu.campus1.host5" in
  Dirsvc.Client.routes client ~target (fun rs ->
      check_int "routes" 2 (List.length rs);
      incr answers;
      (* second query: cache hit, still async *)
      Dirsvc.Client.routes client ~target (fun _ -> incr answers));
  Sim.Engine.run engine;
  check_int "both answered" 2 !answers;
  check_int "one miss" 1 (Dirsvc.Client.misses client);
  check_int "one hit" 1 (Dirsvc.Client.hits client);
  (* invalidate forces requery *)
  Dirsvc.Client.invalidate client ~target;
  Dirsvc.Client.routes client ~target (fun _ -> ());
  Sim.Engine.run engine;
  check_int "requeried" 2 (Dirsvc.Client.misses client)

let cache_hit_is_faster () =
  let _, _, hosts, dir = build () in
  let engine = Sim.Engine.create () in
  let client = Dirsvc.Client.create engine dir ~node:hosts.(0) in
  let target = n "edu.campus2.host2" in
  let t_miss = ref 0 and t_hit = ref 0 in
  Dirsvc.Client.routes client ~target (fun _ ->
      t_miss := Sim.Engine.now engine;
      Dirsvc.Client.routes client ~target (fun _ ->
          t_hit := Sim.Engine.now engine - !t_miss));
  Sim.Engine.run engine;
  check_bool "miss pays hierarchy walk" true (!t_miss >= Sim.Time.ms 2);
  check_bool "hit is local" true (!t_hit < Sim.Time.ms 1)

let monitor_reports_steer () =
  (* Saturate the r1 path with real traffic; the monitor's utilization
     reports steer subsequent queries to r2 with no manual report_load. *)
  let g = G.create () in
  let h1 = G.add_node g G.Host and h2 = G.add_node g G.Host in
  let r1 = G.add_node g G.Router and r2 = G.add_node g G.Router in
  ignore (G.connect g h1 r1 G.default_props);
  ignore (G.connect g h1 r2 G.default_props);
  ignore (G.connect g r1 h2 G.default_props);
  ignore (G.connect g r2 h2 { G.default_props with G.propagation = Sim.Time.us 50 });
  let engine = Sim.Engine.create () in
  let world = Netsim.World.create engine g in
  ignore (Sirpent.Router.create world ~node:r1 ());
  ignore (Sirpent.Router.create world ~node:r2 ());
  let s1 = Sirpent.Host.create world ~node:h1 in
  let s2 = Sirpent.Host.create world ~node:h2 in
  Sirpent.Host.set_receive s2 (fun _ ~packet:_ ~in_port:_ -> ());
  let dir = D.create g in
  D.register dir ~name:(n "org.dst") ~node:h2;
  let monitor = Dirsvc.Monitor.create ~interval:(Sim.Time.ms 100) world dir in
  Dirsvc.Monitor.start monitor ~until:(Sim.Time.s 1);
  (* drive the r1 path hard (h1's port 1 leads to r1) *)
  let metric (_ : G.link) = 1.0 in
  let via_r1 =
    List.find
      (fun hops -> List.mem r1 (G.route_nodes g ~src:h1 hops))
      (G.k_shortest_paths g ~metric ~src:h1 ~dst:h2 ~k:2)
  in
  let route = Sirpent.Route.of_hops g ~src:h1 via_r1 in
  let rec blast t =
    if t < Sim.Time.s 1 then
      Sim.Engine.schedule_at engine ~time:t (fun () ->
          ignore (Sirpent.Host.send s1 ~route ~data:(Bytes.make 1200 'x') ());
          blast (t + Sim.Time.ms 1))
  in
  blast (Sim.Time.ms 1);
  Sim.Engine.run ~until:(Sim.Time.s 1) engine;
  check_bool "monitor reported" true (Dirsvc.Monitor.reports_made monitor > 0);
  let best = D.query dir ~client:h1 ~target:(n "org.dst") ~k:1 () in
  check_bool "advisory avoids the loaded path" true
    (List.mem r2 (G.route_nodes g ~src:h1 (List.hd best).D.hops))

(* --- name interning and region enumeration --- *)

let interning_is_stable () =
  let _, _, hosts, dir = build () in
  let a = D.intern_name dir (n "edu.campus1.host5") in
  let b = D.intern_name dir (n "edu.campus1.host5") in
  check_int "same name same id" a b;
  let c = D.intern_name dir (n "edu.campus2.host2") in
  check_bool "distinct names distinct ids" true (a <> c);
  check_bool "registered names counted" true (D.registered_names dir >= 8);
  ignore hosts

let region_enumeration_is_subtree () =
  let g = G.create () in
  let dir = D.create g in
  let reg name =
    let h = G.add_node g G.Host in
    D.register dir ~name:(n name) ~node:h;
    h
  in
  let h1 = reg "edu.stanford.cs.h1" in
  let h2 = reg "edu.stanford.cs.h2" in
  let h3 = reg "edu.stanford.ee.h1" in
  let _h4 = reg "edu.mit.lcs.h1" in
  let under prefix =
    List.map (fun (_, node) -> node) (D.enumerate_region dir (n prefix))
  in
  Alcotest.(check (list int)) "cs subtree" [ h1; h2 ] (under "edu.stanford.cs");
  Alcotest.(check (list int)) "stanford subtree" [ h1; h2; h3 ] (under "edu.stanford");
  check_int "edu subtree" 4 (List.length (under "edu"));
  check_int "unknown region empty" 0 (List.length (under "com"));
  (* exact-name prefix includes itself *)
  Alcotest.(check (list int)) "leaf prefix" [ h1 ] (under "edu.stanford.cs.h1")

(* --- memoization correctness --- *)

(* A directory with both memo LRUs disabled computes every query from
   scratch through the seed per-query path: the reference for equality. *)
let build_pair () =
  let rng = Sim.Rng.create 99L in
  let g, _routers, hosts = G.campus_internet ~rng ~campuses:4 ~hosts_per_campus:2 in
  let dir_memo = D.create g in
  let dir_cold = D.create ~answer_cache:0 ~spt_cache:0 g in
  Array.iteri
    (fun i h ->
      let name = n (Printf.sprintf "edu.campus%d.host%d" (i mod 4) i) in
      D.register dir_memo ~name ~node:h;
      D.register dir_cold ~name ~node:h)
    hosts;
  (g, hosts, dir_memo, dir_cold)

let strip (infos : D.route_info list) =
  (* tokens keep their original nonces under memoization; compare the
     routing substance: hops and attributes *)
  List.map (fun (r : D.route_info) -> (r.D.hops, r.D.attrs)) infos

let memoized_equals_cold () =
  let _, hosts, dir_memo, dir_cold = build_pair () in
  let rng = Sim.Rng.create 0x21E9L in
  let selectors = [| D.Lowest_delay; D.Highest_bandwidth; D.Lowest_cost |] in
  for _ = 1 to 200 do
    let client = hosts.(Sim.Rng.int rng (Array.length hosts)) in
    let ti = Sim.Rng.int rng (Array.length hosts) in
    let target = n (Printf.sprintf "edu.campus%d.host%d" (ti mod 4) ti) in
    let selector = selectors.(Sim.Rng.int rng (Array.length selectors)) in
    let k = 1 + Sim.Rng.int rng 2 in
    let memo = D.query dir_memo ~client ~target ~selector ~k () in
    let cold = D.query dir_cold ~client ~target ~selector ~k () in
    check_bool "memoized answer = cold answer" true (strip memo = strip cold);
    (* mix in load reports so epochs advance mid-stream *)
    if Sim.Rng.int rng 10 = 0 then begin
      let link = Sim.Rng.int rng 8 in
      let u = float_of_int (Sim.Rng.int rng 100) /. 100.0 in
      D.report_load dir_memo ~link_id:link ~utilization:u;
      D.report_load dir_cold ~link_id:link ~utilization:u
    end
  done;
  check_bool "memo hits happened" true (D.cache_hits dir_memo > 0);
  check_bool "cold path never cached" true (D.cache_hits dir_cold = 0);
  (* an SPT build can only happen inside a miss computation *)
  check_bool "spt builds bounded by misses" true
    (D.spt_builds dir_memo <= D.cache_misses dir_memo)

let epoch_bump_changes_answers () =
  let g = G.create () in
  let h1 = G.add_node g G.Host and h2 = G.add_node g G.Host in
  let r1 = G.add_node g G.Router and r2 = G.add_node g G.Router in
  ignore (G.connect g h1 r1 G.default_props);
  ignore (G.connect g h1 r2 G.default_props);
  ignore (G.connect g r1 h2 G.default_props) (* link 2 *);
  ignore (G.connect g r2 h2 { G.default_props with G.propagation = Sim.Time.us 50 });
  let dir = D.create g in
  D.register dir ~name:(n "org.dst") ~node:h2;
  let best () =
    let routes = D.query dir ~client:h1 ~target:(n "org.dst") ~k:1 () in
    G.route_nodes g ~src:h1 (List.hd routes).D.hops
  in
  check_bool "r1 initially" true (List.mem r1 (best ()));
  let e0 = D.epoch dir in
  check_int "second query hits the memo" 1
    (let _ = best () in
     D.cache_hits dir);
  (* an unchanged report must NOT flush the cache *)
  D.report_load dir ~link_id:2 ~utilization:0.0;
  check_int "unchanged load keeps epoch" e0 (D.epoch dir);
  (* a real load change bumps the epoch and recomputes *)
  D.report_load dir ~link_id:2 ~utilization:0.95;
  check_bool "epoch advanced" true (D.epoch dir > e0);
  let misses_before = D.cache_misses dir in
  check_bool "answer steers to r2 after the bump" true (List.mem r2 (best ()));
  check_bool "recomputed, not replayed" true (D.cache_misses dir > misses_before)

let lru_never_serves_stale_epoch () =
  let g = G.create () in
  let h1 = G.add_node g G.Host and h2 = G.add_node g G.Host in
  let r1 = G.add_node g G.Router and r2 = G.add_node g G.Router in
  ignore (G.connect g h1 r1 G.default_props);
  ignore (G.connect g h1 r2 G.default_props);
  ignore (G.connect g r1 h2 G.default_props) (* link 2 *);
  ignore (G.connect g r2 h2 { G.default_props with G.propagation = Sim.Time.us 50 });
  (* tiny caches force evictions while epochs churn *)
  let dir = D.create ~answer_cache:2 ~spt_cache:1 g in
  let cold = D.create ~answer_cache:0 ~spt_cache:0 g in
  D.register dir ~name:(n "org.dst") ~node:h2;
  D.register cold ~name:(n "org.dst") ~node:h2;
  let rng = Sim.Rng.create 7L in
  let selectors = [| D.Lowest_delay; D.Highest_bandwidth; D.Lowest_cost |] in
  for i = 1 to 100 do
    (if i mod 3 = 0 then
       let u = float_of_int (Sim.Rng.int rng 100) /. 100.0 in
       let link = Sim.Rng.int rng 4 in
       D.report_load dir ~link_id:link ~utilization:u;
       D.report_load cold ~link_id:link ~utilization:u);
    let selector = selectors.(Sim.Rng.int rng 3) in
    let k = 1 + Sim.Rng.int rng 2 in
    let a = D.query dir ~client:h1 ~target:(n "org.dst") ~selector ~k () in
    let b = D.query cold ~client:h1 ~target:(n "org.dst") ~selector ~k () in
    check_bool "evicting cache still epoch-exact" true (strip a = strip b)
  done;
  check_bool "evictions actually happened" true (D.cache_evictions dir > 0);
  check_bool "resident state bounded by caps" true (D.cache_entries dir <= 3)

let frozen_replay_survives_memoization () =
  (* same shape as the faults test, but through the LRU path: frozen
     replays the memo regardless of epoch, thaw recomputes *)
  let g = G.create () in
  let h1 = G.add_node g G.Host and h2 = G.add_node g G.Host in
  let r1 = G.add_node g G.Router in
  ignore (G.connect g h1 r1 G.default_props);
  ignore (G.connect g r1 h2 G.default_props);
  let dir = D.create g in
  D.register dir ~name:(n "org.dst") ~node:h2;
  let fresh = D.query dir ~client:h1 ~target:(n "org.dst") ~k:1 () in
  check_int "route exists" 1 (List.length fresh);
  D.set_frozen dir true;
  D.report_load dir ~link_id:0 ~utilization:0.9 (* epoch bump *);
  let stale = D.query dir ~client:h1 ~target:(n "org.dst") ~k:1 () in
  check_bool "frozen replays despite epoch bump" true (strip stale = strip fresh);
  check_int "stale counted" 1 (D.stale_served dir)

let client_cache_is_bounded () =
  let _, _, hosts, dir = build () in
  let engine = Sim.Engine.create () in
  let client =
    Dirsvc.Client.create ~cache_cap:3 ~cache_ttl:(Sim.Time.s 10) engine dir
      ~node:hosts.(0)
  in
  for i = 0 to 6 do
    Dirsvc.Client.routes client
      ~target:(n (Printf.sprintf "edu.campus%d.host%d" (i mod 4) i))
      (fun _ -> ())
  done;
  Sim.Engine.run engine;
  check_bool "entries capped" true (Dirsvc.Client.cached_entries client <= 3);
  check_int "all were misses" 7 (Dirsvc.Client.misses client)

let client_sweeps_expired_before_evicting () =
  let _, _, hosts, dir = build () in
  let engine = Sim.Engine.create () in
  let client =
    Dirsvc.Client.create ~cache_cap:2 ~cache_ttl:(Sim.Time.ms 50) engine dir
      ~node:hosts.(0)
  in
  let q i k = Dirsvc.Client.routes client ~target:(n (Printf.sprintf "edu.campus%d.host%d" (i mod 4) i)) k in
  q 1 (fun _ -> ());
  q 2 (fun _ -> ());
  Sim.Engine.run engine;
  check_int "full" 2 (Dirsvc.Client.cached_entries client);
  (* let both entries expire, then insert: the sweep clears them *)
  Sim.Engine.schedule engine ~delay:(Sim.Time.s 1) (fun () -> q 3 (fun _ -> ()));
  Sim.Engine.run engine;
  check_bool "expired swept on insert" true (Dirsvc.Client.cached_entries client <= 2)

let client_counters_on_registry () =
  let _, _, hosts, dir = build () in
  let engine = Sim.Engine.create () in
  let registry = Telemetry.Registry.create () in
  let client =
    Dirsvc.Client.create ~telemetry:registry engine dir ~node:hosts.(0)
  in
  let target = n "edu.campus1.host5" in
  Dirsvc.Client.routes client ~target (fun _ ->
      Dirsvc.Client.routes client ~target (fun _ -> ()));
  Sim.Engine.run engine;
  check_int "hit" 1 (Dirsvc.Client.hits client);
  check_int "miss" 1 (Dirsvc.Client.misses client);
  let rows = Telemetry.Registry.snapshot registry in
  let find name =
    List.exists
      (fun (r : Telemetry.Registry.row) -> r.Telemetry.Registry.row_name = name)
      rows
  in
  check_bool "hits exported" true (find "dirsvc_client_hits");
  check_bool "misses exported" true (find "dirsvc_client_misses")

let () =
  Alcotest.run "dirsvc"
    [
      ( "names",
        [
          Alcotest.test_case "parse/print" `Quick name_parse_print;
          Alcotest.test_case "region" `Quick name_region;
          Alcotest.test_case "hierarchy distance" `Quick name_distance;
        ] );
      ( "directory",
        [
          Alcotest.test_case "query with attributes" `Quick query_returns_routes_with_attrs;
          Alcotest.test_case "unknown name" `Quick query_unknown_name_empty;
          Alcotest.test_case "tokens verify at routers" `Quick tokens_verify_at_routers;
          Alcotest.test_case "secure selector" `Quick secure_selector_filters;
          Alcotest.test_case "load steers routes" `Quick load_reports_steer_routes;
          Alcotest.test_case "lowest cost selector" `Quick lowest_cost_selector;
          Alcotest.test_case "latency scales with hierarchy" `Quick
            query_latency_scales_with_hierarchy;
        ] );
      ( "monitor",
        [ Alcotest.test_case "auto load reports steer" `Quick monitor_reports_steer ] );
      ( "scale",
        [
          Alcotest.test_case "interning is stable" `Quick interning_is_stable;
          Alcotest.test_case "region enumeration" `Quick region_enumeration_is_subtree;
          Alcotest.test_case "memoized = cold" `Quick memoized_equals_cold;
          Alcotest.test_case "epoch bump changes answers" `Quick
            epoch_bump_changes_answers;
          Alcotest.test_case "LRU never serves stale epoch" `Quick
            lru_never_serves_stale_epoch;
          Alcotest.test_case "frozen replay through memo" `Quick
            frozen_replay_survives_memoization;
        ] );
      ( "client",
        [
          Alcotest.test_case "caches and invalidates" `Quick client_caches;
          Alcotest.test_case "hit faster than miss" `Quick cache_hit_is_faster;
          Alcotest.test_case "bounded cache" `Quick client_cache_is_bounded;
          Alcotest.test_case "sweeps expired on insert" `Quick
            client_sweeps_expired_before_evicting;
          Alcotest.test_case "telemetry counters" `Quick client_counters_on_registry;
        ] );
    ]
