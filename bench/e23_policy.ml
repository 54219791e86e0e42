(* E23 — policy compiler: intents → VIPER routes, and in-header failover
   (Slick-Packets-style branch DAG) vs VMTP's client re-query ladder.

   Part 1 (property): for intent-free policies, the compiled route must be
   bit-identical to the directory's own per-query answer — checked over
   random hierarchical topologies, every selector.

   Part 2 (failover): the E7 diamond

       src -- r0 -- ra -- r3 -- dst
                \-- rb --/

   with the ra-r3 trunk cut (and, in the flap scenario, restored 500 ms
   later). The re-query mechanism climbs the §6.3 ladder: retransmission
   timeouts, then failover to the second directory route. The in-header
   mechanism sends one protected route whose segments carry branch routes;
   the router at ra switches the packet onto its branch the moment the
   dead link is hit — no timeout, no directory round trip. The measurement
   is the service gap (cut → first delivery) plus the DAG's header cost in
   bytes-on-wire. *)

module G = Topo.Graph
module W = Netsim.World
module D = Dirsvc.Directory

let pf = Printf.printf

(* ---- part 1: compiled ≡ queried over random hierarchies ---- *)

let selectors = [ D.Lowest_delay; D.Highest_bandwidth; D.Lowest_cost; D.Secure ]

let equivalence_world ~rng ~hosts ~pairs_per_selector =
  let g, _regions, host_ids =
    G.hierarchical_internet ~rng ~branching:3 ~depth:3 ~hosts ()
  in
  let dir = D.create g in
  let names =
    Array.map
      (fun h ->
        let name = Dirsvc.Name.of_string (G.name g h) in
        D.register dir ~name ~node:h;
        name)
      host_ids
  in
  let n = Array.length host_ids in
  let pairs =
    List.init pairs_per_selector (fun _ ->
        (host_ids.(Sim.Rng.int rng n), names.(Sim.Rng.int rng n)))
  in
  List.fold_left
    (fun (acc : Policy.Verify.report) selector ->
      let r = Policy.Verify.sweep dir ~pairs ~selector () in
      {
        Policy.Verify.checked = acc.Policy.Verify.checked + r.Policy.Verify.checked;
        failed = acc.Policy.Verify.failed + r.Policy.Verify.failed;
      })
    { Policy.Verify.checked = 0; failed = 0 }
    selectors

(* ---- part 2: failover mechanisms on the E7 diamond ---- *)

let build_diamond () =
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

let cut_time = Sim.Time.s 2
let flap_restore = Sim.Time.ms 500
let send_interval = Sim.Time.ms 20

type mechanism = Requery | Inheader
type fault = Cut | Flap

type cell = {
  label : string;
  gap : Sim.Time.t;
  delivered : int;
  branch_arrivals : int;
  route_switches : int;
  inheader_failovers : int;
  branch_count : int;
  dag_header_bytes : int;
  plain_header_bytes : int;
}

let run_cell ~horizon (fault, mech) =
  let g, src, dst, doomed = build_diamond () in
  let engine = Sim.Engine.create () in
  let world = W.create engine g in
  let routers = ref [] in
  G.iter_nodes g (fun n ->
      if G.kind g n = G.Router then
        routers := Sirpent.Router.create world ~node:n () :: !routers);
  let h_src = Sirpent.Host.create world ~node:src in
  let h_dst = Sirpent.Host.create world ~node:dst in
  let dir = D.create g in
  let dst_name = Dirsvc.Name.of_string "x.dst" in
  D.register dir ~name:dst_name ~node:dst;
  let client = Vmtp.Entity.create h_src ~id:1L in
  let server = Vmtp.Entity.create h_dst ~id:2L in
  Vmtp.Entity.set_request_handler server (fun _ ~data:_ ~reply -> reply Bytes.empty);
  let first_after = ref 0 and delivered = ref 0 in
  let on_reply _ ~rtt:_ =
    incr delivered;
    let now = Sim.Engine.now engine in
    if now > cut_time && !first_after = 0 then first_after := now
  in
  let compiled =
    match
      Policy.Compiler.compile dir ~client:src ~target:dst_name
        (Policy.Intent.protect Policy.Intent.direct)
    with
    | Ok c -> c
    | Error e -> failwith (Policy.Compiler.error_to_string e)
  in
  let do_call =
    match mech with
    | Inheader ->
      (* one protected route: recovery is the router's, not the client's *)
      fun () ->
        Vmtp.Entity.call_compiled client ~server:2L ~compiled
          ~data:(Bytes.make 200 'f') ~on_reply
          ~on_fail:(fun _ -> ())
          ()
    | Requery ->
      (* the §6.3 ladder: two directory routes, timeout-driven failover *)
      let routes =
        List.map
          (fun (r : D.route_info) -> r.D.route)
          (D.query dir ~client:src ~target:dst_name ~k:2 ())
      in
      let sroutes = ref routes in
      Vmtp.Entity.set_route_switch_hook client (fun ~failed ~route_index:_ ->
          match !sroutes with
          | a :: b when Sirpent.Route.equal a failed -> sroutes := b @ [ a ]
          | _ -> ());
      fun () ->
        Vmtp.Entity.call client ~server:2L ~routes:!sroutes
          ~data:(Bytes.make 200 'f') ~on_reply
          ~on_fail:(fun _ -> ())
          ()
  in
  let rec caller t =
    if t < horizon then
      Sim.Engine.schedule_at engine ~time:t (fun () ->
          do_call ();
          caller (t + send_interval))
  in
  caller (Sim.Time.ms 10);
  Sim.Engine.schedule_at engine ~time:cut_time (fun () -> W.fail_link world doomed);
  (match fault with
  | Cut -> ()
  | Flap ->
    Sim.Engine.schedule_at engine
      ~time:(cut_time + flap_restore)
      (fun () -> W.restore_link world doomed));
  Sim.Engine.run ~until:horizon engine;
  let cstats = Vmtp.Entity.stats client in
  let sstats = Vmtp.Entity.stats server in
  let failovers =
    List.fold_left
      (fun acc r -> acc + (Sirpent.Router.stats r).Sirpent.Router.inheader_failovers)
      0 !routers
  in
  {
    label =
      Printf.sprintf "%s / %s"
        (match fault with Cut -> "cut" | Flap -> "flap")
        (match mech with Requery -> "re-query" | Inheader -> "in-header");
    gap =
      (if !first_after = 0 then horizon - cut_time else !first_after - cut_time);
    delivered = !delivered;
    branch_arrivals =
      cstats.Vmtp.Entity.branch_arrivals + sstats.Vmtp.Entity.branch_arrivals;
    route_switches = cstats.Vmtp.Entity.route_switches;
    inheader_failovers = failovers;
    branch_count = compiled.Policy.Compiler.branch_count;
    dag_header_bytes = compiled.Policy.Compiler.header_bytes;
    plain_header_bytes = compiled.Policy.Compiler.plain_header_bytes;
  }

let run () =
  Util.heading "E23 policy compiler: intents -> routes, in-header failover DAG";
  let horizon = Util.scaled ~full:(Sim.Time.s 30) ~smoke:(Sim.Time.s 8) in
  let topos = Util.scaled ~full:6 ~smoke:3 in
  let hosts = Util.scaled ~full:120 ~smoke:40 in
  let pairs_per_selector = Util.scaled ~full:24 ~smoke:8 in

  pf "compiled = queried property over %d random hierarchies (%d hosts,\n" topos hosts;
  pf "%d pairs x %d selectors each), then the E7 diamond with the ra-r3\n"
    pairs_per_selector (List.length selectors);
  pf "trunk cut at t=2 s: client re-query ladder vs in-header branch DAG.\n\n";

  (* part 1: equivalence sweep (one topology per grid point, --jobs safe) *)
  let eq_reports, _ =
    Util.sweep
      (List.init topos (fun i -> i))
      ~f:(fun ~rng ~index:_ _ -> equivalence_world ~rng ~hosts ~pairs_per_selector)
  in
  let eq =
    Array.fold_left
      (fun (acc : Policy.Verify.report) (r : Policy.Verify.report) ->
        {
          Policy.Verify.checked = acc.Policy.Verify.checked + r.Policy.Verify.checked;
          failed = acc.Policy.Verify.failed + r.Policy.Verify.failed;
        })
      { Policy.Verify.checked = 0; failed = 0 }
      eq_reports
  in
  pf "equivalence: %d compiled routes checked against per-query answers, %d mismatches\n\n"
    eq.Policy.Verify.checked eq.Policy.Verify.failed;

  (* part 2: failover grid *)
  let grid = [ (Cut, Requery); (Cut, Inheader); (Flap, Requery); (Flap, Inheader) ] in
  let cells, sw = Util.sweep grid ~f:(fun ~rng:_ ~index:_ cell -> run_cell ~horizon cell) in
  Util.table
    ~header:
      [
        "scenario"; "service gap (ms)"; "delivered"; "branch arrivals";
        "route switches"; "router failovers";
      ]
    (Array.to_list
       (Array.map
          (fun c ->
            [
              c.label; Util.ms c.gap; Util.i c.delivered; Util.i c.branch_arrivals;
              Util.i c.route_switches; Util.i c.inheader_failovers;
            ])
          cells));
  let cell fault mech =
    let want = Printf.sprintf "%s / %s" fault mech in
    Array.to_list cells |> List.find (fun c -> c.label = want)
  in
  let req = cell "cut" "re-query" and inh = cell "cut" "in-header" in
  let advantage =
    Sim.Time.to_ms req.gap /. Float.max (Sim.Time.to_ms inh.gap) 1e-6
  in
  pf "\nDAG header: %d bytes-on-wire vs %d plain (+%d for %d branch hops)\n"
    inh.dag_header_bytes inh.plain_header_bytes
    (inh.dag_header_bytes - inh.plain_header_bytes)
    inh.branch_count;
  pf "failover advantage (re-query gap / in-header gap, cut scenario): %.1fx\n" advantage;
  pf "\npaper check: the branch DAG turns a link failure into one local\n";
  pf "switching decision — the client's retransmission ladder (and the\n";
  pf "directory) never hear about it; the trailer still records the path\n";
  pf "actually taken, so return routes stay valid.\n";
  Util.write_json ~exp:"e23"
    (Util.J.Obj
       ([
          ("experiment", Util.J.String "e23");
          ( "description",
            Util.J.String "policy compiler: intents -> routes, in-header failover DAG" );
          ( "equivalence",
            Util.J.Obj
              [
                ("checked", Util.J.Int eq.Policy.Verify.checked);
                ("failed", Util.J.Int eq.Policy.Verify.failed);
              ] );
          ("inheader_gap_ms", Util.J.Float (Sim.Time.to_ms inh.gap));
          ("requery_gap_ms", Util.J.Float (Sim.Time.to_ms req.gap));
          ("failover_advantage", Util.J.Float advantage);
          ("dag_header_bytes", Util.J.Int inh.dag_header_bytes);
          ("plain_header_bytes", Util.J.Int inh.plain_header_bytes);
          ("branch_count", Util.J.Int inh.branch_count);
          ( "scenarios",
            Util.J.List
              (Array.to_list
                 (Array.map
                    (fun c ->
                      Util.J.Obj
                        [
                          ("scenario", Util.J.String c.label);
                          ("gap_ms", Util.J.Float (Sim.Time.to_ms c.gap));
                          ("delivered", Util.J.Int c.delivered);
                          ("branch_arrivals", Util.J.Int c.branch_arrivals);
                          ("route_switches", Util.J.Int c.route_switches);
                          ("inheader_failovers", Util.J.Int c.inheader_failovers);
                        ])
                    cells)) );
        ]
       @ Util.sweep_fields sw))
