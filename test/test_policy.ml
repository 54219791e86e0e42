(* Tests for the policy compiler: intent normalization, compiled = queried
   bit-identity, constrained compilation (waypoints, avoidance, balance),
   and the live in-header failover path. *)

module G = Topo.Graph
module D = Dirsvc.Directory
module W = Netsim.World
module Seg = Viper.Segment
module I = Policy.Intent
module C = Policy.Compiler

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let n = Dirsvc.Name.of_string

(* --- normalizer --- *)

let spec_count intent = List.length (I.normalize intent)

let norm_direct_is_one_plain () =
  match I.normalize I.direct with
  | [ s ] -> check_bool "plain" true (I.spec_is_plain s)
  | _ -> Alcotest.fail "direct must normalize to exactly one spec"

let norm_seq_crosses_alt () =
  (* seq [alt [a;b]; alt [c;d]] = 4 ordered conjunctions, left-major *)
  let w x = I.waypoint (n x) in
  let intent =
    I.seq [ I.alt [ w "a"; w "b" ]; I.alt [ w "c"; w "d" ] ]
  in
  let specs = I.normalize intent in
  check_int "cross product" 4 (List.length specs);
  let legs s = String.concat "," (List.map Dirsvc.Name.to_string s.I.legs) in
  check_string "first is a,c" "a,c" (legs (List.nth specs 0));
  check_string "second is a,d" "a,d" (legs (List.nth specs 1));
  check_string "last is b,d" "b,d" (legs (List.nth specs 3))

let norm_constraints_distribute () =
  let intent =
    I.avoid_region (n "edu.bad")
      (I.alt [ I.waypoint (n "w"); I.direct ])
  in
  let specs = I.normalize intent in
  check_int "two specs" 2 (List.length specs);
  List.iter
    (fun s -> check_int "region constraint on each" 1 (List.length s.I.avoid_regions))
    specs;
  check_bool "none plain" true (List.for_all (fun s -> not (I.spec_is_plain s)) specs)

let norm_protect_marks_all () =
  let specs = I.normalize (I.protect (I.alt [ I.direct; I.waypoint (n "w") ])) in
  check_bool "all protected" true (List.for_all (fun s -> s.I.protected) specs)

let norm_cap_bounds_blowup () =
  (* 4^4 = 256 alternatives collapse to the max_specs cap *)
  let four = I.alt [ I.direct; I.direct; I.direct; I.direct ] in
  check_int "capped" I.max_specs (spec_count (I.seq [ four; four; four; four ]))

let combinators_reject_nonsense () =
  Alcotest.check_raises "empty seq" (Invalid_argument "Intent.seq: empty") (fun () ->
      ignore (I.seq []));
  Alcotest.check_raises "empty alt" (Invalid_argument "Intent.alt: empty") (fun () ->
      ignore (I.alt []));
  Alcotest.check_raises "bad port"
    (Invalid_argument "Intent.load_balance: port must be 1-253") (fun () ->
      ignore (I.load_balance ~at:(n "r") ~port:0 I.direct))

(* --- a 4-campus internetwork with names --- *)

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

let compile_ok dir ~client ~target intent =
  match C.compile dir ~client ~target intent with
  | Ok c -> c
  | Error e -> Alcotest.fail ("compile failed: " ^ C.error_to_string e)

(* --- compiled = queried --- *)

let direct_equals_query () =
  let _, _, hosts, dir = build () in
  let target = n "edu.campus1.host5" in
  let c = compile_ok dir ~client:hosts.(0) ~target I.direct in
  match D.query dir ~client:hosts.(0) ~target ~k:1 () with
  | [ ri ] ->
    check_bool "route bit-identical" true (Sirpent.Route.equal c.C.route ri.D.route);
    check_bool "hops identical" true (c.C.hops = ri.D.hops);
    check_int "no branches unprotected" 0 c.C.branch_count
  | _ -> Alcotest.fail "query must return one route"

let verify_sweep_over_random_hierarchies () =
  (* the e23 property, in miniature, across every selector *)
  List.iter
    (fun seed ->
      let rng = Sim.Rng.create seed in
      let g, _regions, host_ids =
        G.hierarchical_internet ~rng ~branching:3 ~depth:3 ~hosts:30 ()
      in
      let dir = D.create g in
      let names =
        Array.map
          (fun h ->
            let name = n (G.name g h) in
            D.register dir ~name ~node:h;
            name)
          host_ids
      in
      let nn = Array.length host_ids in
      let pairs =
        List.init 12 (fun _ ->
            (host_ids.(Sim.Rng.int rng nn), names.(Sim.Rng.int rng nn)))
      in
      List.iter
        (fun selector ->
          let r = Policy.Verify.sweep dir ~pairs ~selector () in
          check_int "checked all pairs" 12 r.Policy.Verify.checked;
          check_int "no mismatches" 0 r.Policy.Verify.failed)
        [ D.Lowest_delay; D.Highest_bandwidth; D.Lowest_cost; D.Secure ])
    [ 1L; 2L; 3L; 4L; 5L ]

let unknown_target_is_error () =
  let _, _, hosts, dir = build () in
  match C.compile dir ~client:hosts.(0) ~target:(n "edu.nowhere.x") I.direct with
  | Error (C.Unknown_name _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "unknown target must be Unknown_name"

(* --- constrained compilation --- *)

let waypoint_route_passes_through () =
  let g, _, hosts, dir = build () in
  let target = n "edu.campus1.host5" in
  let way = n "edu.campus2.host2" in
  let c = compile_ok dir ~client:hosts.(0) ~target (I.waypoint way) in
  let through = G.route_nodes g ~src:hosts.(0) c.C.hops in
  check_bool "visits the waypoint" true
    (List.mem (Option.get (D.lookup_name dir way)) through);
  check_bool "ends at target" true
    (List.mem (Option.get (D.lookup_name dir target)) through)

let avoid_node_excludes_it () =
  let g, _, hosts, dir = build () in
  let target = n "edu.campus1.host5" in
  (* ban a host that sits on no transit path: compiles and trivially avoids;
     then ban the target itself: must be unreachable *)
  let c =
    compile_ok dir ~client:hosts.(0) ~target
      (I.avoid_node (n "edu.campus2.host2") I.direct)
  in
  let through = G.route_nodes g ~src:hosts.(0) c.C.hops in
  check_bool "avoided node absent" true
    (not (List.mem (Option.get (D.lookup_name dir (n "edu.campus2.host2"))) through));
  match
    C.compile dir ~client:hosts.(0) ~target (I.avoid_node target I.direct)
  with
  | Error C.Unreachable -> ()
  | Ok _ | Error _ -> Alcotest.fail "banning the target must be Unreachable"

let prefer_produces_alternate () =
  let _, _, hosts, dir = build () in
  let target = n "edu.campus1.host5" in
  let way = n "edu.campus2.host2" in
  let c =
    compile_ok dir ~client:hosts.(0) ~target
      (I.prefer I.direct ~backup:(I.waypoint way))
  in
  (* primary is the plain answer; the waypoint fallback rides as alternate *)
  check_bool "has an alternate" true (c.C.alternates <> []);
  check_bool "alternate differs from primary" true
    (List.for_all (fun r -> not (Sirpent.Route.equal r c.C.plain)) c.C.alternates);
  (* alternation implies protection: the primary carries branch routes *)
  check_bool "primary protected" true (c.C.branch_count > 0);
  check_bool "header grew" true (c.C.header_bytes > c.C.plain_header_bytes)

let balance_rewrites_port () =
  let g, _, hosts, dir = build () in
  let target = n "edu.campus1.host5" in
  (* balance at the first router of the plain route *)
  let plain = compile_ok dir ~client:hosts.(0) ~target I.direct in
  let first_router = List.nth (G.route_nodes g ~src:hosts.(0) plain.C.hops) 1 in
  let rname = n (G.name g first_router) in
  D.register dir ~name:rname ~node:first_router;
  let c =
    compile_ok dir ~client:hosts.(0) ~target
      (I.load_balance ~at:rname ~port:200 I.direct)
  in
  let seg = List.hd c.C.route.Sirpent.Route.segments in
  check_int "logical port substituted" 200 seg.Seg.port;
  check_int "token dropped" 0 (Bytes.length seg.Seg.token)

(* --- live in-header failover --- *)

let diamond () =
  let g = G.create () in
  let src = G.add_node g G.Host and dst = G.add_node g G.Host in
  let r0 = G.add_node g G.Router in
  let ra = G.add_node g G.Router and rb = G.add_node g G.Router in
  let r3 = G.add_node g G.Router in
  ignore (G.connect g src r0 G.default_props);
  ignore (G.connect g r0 ra G.default_props);
  ignore (G.connect g r0 rb { G.default_props with G.propagation = Sim.Time.us 50 });
  ignore (G.connect g ra r3 G.default_props);
  ignore (G.connect g rb r3 { G.default_props with G.propagation = Sim.Time.us 50 });
  ignore (G.connect g r3 dst G.default_props);
  let doomed =
    List.find
      (fun (l : G.link) -> (l.G.a = ra && l.G.b = r3) || (l.G.a = r3 && l.G.b = ra))
      (G.links g)
  in
  (g, src, dst, doomed)

let protected_route_survives_cut () =
  let g, src, dst, doomed = diamond () in
  let engine = Sim.Engine.create () in
  let world = W.create engine g in
  let routers = ref [] in
  G.iter_nodes g (fun node ->
      if G.kind g node = G.Router then
        routers := Sirpent.Router.create world ~node () :: !routers);
  let h_src = Sirpent.Host.create world ~node:src in
  let h_dst = Sirpent.Host.create world ~node:dst in
  let dir = D.create g in
  D.register dir ~name:(n "x.dst") ~node:dst;
  let c = compile_ok dir ~client:src ~target:(n "x.dst") (I.protect I.direct) in
  check_bool "branches attached" true (c.C.branch_count > 0);
  let got = ref 0 and branched = ref 0 in
  Sirpent.Host.set_receive h_dst (fun _ ~packet ~in_port:_ ->
      incr got;
      if Viper.Packet.took_branch packet then incr branched);
  (* before the cut: primary path, no branch marker *)
  ignore (Sirpent.Host.send h_src ~route:c.C.route ~data:(Bytes.of_string "a") ());
  Sim.Engine.run engine;
  check_int "delivered on primary" 1 !got;
  check_int "no branch taken" 0 !branched;
  (* cut the primary's trunk: the same compiled route still delivers *)
  W.fail_link world doomed;
  ignore (Sirpent.Host.send h_src ~route:c.C.route ~data:(Bytes.of_string "b") ());
  Sim.Engine.run engine;
  check_int "delivered via branch" 2 !got;
  check_int "branch recorded in trailer" 1 !branched;
  let failovers =
    List.fold_left
      (fun acc r -> acc + (Sirpent.Router.stats r).Sirpent.Router.inheader_failovers)
      0 !routers
  in
  check_int "exactly one router failover" 1 failovers

let unprotected_route_drops_on_cut () =
  let g, src, dst, doomed = diamond () in
  let engine = Sim.Engine.create () in
  let world = W.create engine g in
  G.iter_nodes g (fun node ->
      if G.kind g node = G.Router then ignore (Sirpent.Router.create world ~node ()));
  let h_src = Sirpent.Host.create world ~node:src in
  let h_dst = Sirpent.Host.create world ~node:dst in
  let dir = D.create g in
  D.register dir ~name:(n "x.dst") ~node:dst;
  let c = compile_ok dir ~client:src ~target:(n "x.dst") I.direct in
  let got = ref 0 in
  Sirpent.Host.set_receive h_dst (fun _ ~packet:_ ~in_port:_ -> incr got);
  W.fail_link world doomed;
  ignore (Sirpent.Host.send h_src ~route:c.C.route ~data:(Bytes.of_string "x") ());
  Sim.Engine.run engine;
  check_int "nothing delivered" 0 !got

let vmtp_counters_tell_mechanisms_apart () =
  (* same cut, two mechanisms: in-header ticks branch_arrivals, the
     re-query ladder ticks route_switches — never both *)
  let run_mech inheader =
    let g, src, dst, doomed = diamond () in
    let engine = Sim.Engine.create () in
    let world = W.create engine g in
    G.iter_nodes g (fun node ->
        if G.kind g node = G.Router then ignore (Sirpent.Router.create world ~node ()));
    let h_src = Sirpent.Host.create world ~node:src in
    let h_dst = Sirpent.Host.create world ~node:dst in
    let dir = D.create g in
    D.register dir ~name:(n "x.dst") ~node:dst;
    let client = Vmtp.Entity.create h_src ~id:1L in
    let server = Vmtp.Entity.create h_dst ~id:2L in
    Vmtp.Entity.set_request_handler server (fun _ ~data:_ ~reply -> reply Bytes.empty);
    let ok = ref 0 in
    let on_reply _ ~rtt:_ = incr ok in
    let on_fail _ = () in
    (* routes are compiled/queried BEFORE the cut — the epoch-stale
       scenario in-header protection exists for *)
    let c = compile_ok dir ~client:src ~target:(n "x.dst") (I.protect I.direct) in
    let routes =
      List.map
        (fun (r : D.route_info) -> r.D.route)
        (D.query dir ~client:src ~target:(n "x.dst") ~k:2 ())
    in
    Sim.Engine.schedule_at engine ~time:(Sim.Time.ms 1) (fun () ->
        W.fail_link world doomed);
    Sim.Engine.schedule_at engine ~time:(Sim.Time.ms 2) (fun () ->
        if inheader then
          Vmtp.Entity.call_compiled client ~server:2L ~compiled:c
            ~data:(Bytes.of_string "q") ~on_reply ~on_fail ()
        else
          Vmtp.Entity.call client ~server:2L ~routes ~data:(Bytes.of_string "q")
            ~on_reply ~on_fail ());
    Sim.Engine.run ~until:(Sim.Time.s 5) engine;
    check_int "transaction completed" 1 !ok;
    let s = Vmtp.Entity.stats client in
    let sv = Vmtp.Entity.stats server in
    (s.Vmtp.Entity.route_switches, s.Vmtp.Entity.branch_arrivals + sv.Vmtp.Entity.branch_arrivals)
  in
  let switches_ih, branches_ih = run_mech true in
  check_int "in-header: no route switch" 0 switches_ih;
  check_bool "in-header: branch arrivals seen" true (branches_ih > 0);
  let switches_rq, branches_rq = run_mech false in
  check_bool "re-query: switched routes" true (switches_rq > 0);
  check_int "re-query: no branch arrivals" 0 branches_rq

(* --- properties --- *)

let qcheck_normalize_nonempty_and_capped =
  let gen =
    QCheck.Gen.(
      sized @@ fix (fun self s ->
          let leaf =
            oneof
              [
                return I.direct;
                map (fun i -> I.waypoint (n (Printf.sprintf "w%d" i))) (int_range 0 9);
              ]
          in
          if s <= 1 then leaf
          else
            let sub = self (s / 2) in
            oneof
              [
                leaf;
                map I.protect sub;
                map (fun t -> I.avoid_node (n "bad") t) sub;
                map (fun t -> I.avoid_region (n "edu.bad") t) sub;
                map2 (fun a b -> I.seq [ a; b ]) sub sub;
                map2 (fun a b -> I.alt [ a; b ]) sub sub;
              ]))
  in
  QCheck.Test.make ~name:"normalize: 1..max_specs specs, plain iff unconstrained"
    ~count:300 (QCheck.make gen) (fun intent ->
      let specs = I.normalize intent in
      let len = List.length specs in
      len >= 1 && len <= I.max_specs)

let () =
  Alcotest.run "policy"
    [
      ( "normalizer",
        [
          Alcotest.test_case "direct is one plain spec" `Quick norm_direct_is_one_plain;
          Alcotest.test_case "seq crosses alt" `Quick norm_seq_crosses_alt;
          Alcotest.test_case "constraints distribute" `Quick norm_constraints_distribute;
          Alcotest.test_case "protect marks all" `Quick norm_protect_marks_all;
          Alcotest.test_case "cap bounds blowup" `Quick norm_cap_bounds_blowup;
          Alcotest.test_case "combinators reject nonsense" `Quick combinators_reject_nonsense;
        ] );
      ( "compiled = queried",
        [
          Alcotest.test_case "direct equals query" `Quick direct_equals_query;
          Alcotest.test_case "random hierarchies, all selectors" `Quick
            verify_sweep_over_random_hierarchies;
          Alcotest.test_case "unknown target" `Quick unknown_target_is_error;
        ] );
      ( "constrained compilation",
        [
          Alcotest.test_case "waypoint passes through" `Quick waypoint_route_passes_through;
          Alcotest.test_case "avoid node excludes it" `Quick avoid_node_excludes_it;
          Alcotest.test_case "prefer produces alternate" `Quick prefer_produces_alternate;
          Alcotest.test_case "balance rewrites port" `Quick balance_rewrites_port;
        ] );
      ( "in-header failover",
        [
          Alcotest.test_case "protected route survives cut" `Quick
            protected_route_survives_cut;
          Alcotest.test_case "unprotected route drops" `Quick
            unprotected_route_drops_on_cut;
          Alcotest.test_case "vmtp counters tell mechanisms apart" `Quick
            vmtp_counters_tell_mechanisms_apart;
        ] );
      ( "properties",
        List.map Seeded.to_alcotest [ qcheck_normalize_nonempty_and_capped ] );
    ]
