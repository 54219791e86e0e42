(* Congestion control and failure recovery (§2.2, §6.3): two phases.

   Phase 1 — rate-based backpressure: three hosts overdrive a slow trunk;
   the congested router signals its feeders, soft per-flow rate state forms
   upstream, and loss collapses while goodput holds.

   Phase 2 — client-driven failover: a VMTP client holds two directory
   routes; the primary trunk is cut mid-conversation and the transport
   switches to the alternate after its retransmission budget — no routing
   protocol reconvergence involved.

   Run with:  dune exec examples/congestion_failover.exe *)

module G = Topo.Graph
module W = Netsim.World

let pf = Printf.printf

(* ---------- phase 1 ---------- *)

let phase1 () =
  pf "phase 1: rate-based congestion control on an overdriven trunk\n";
  let run with_control =
    let g = G.create () in
    let sources = Array.init 3 (fun i -> G.add_node g ~name:(Printf.sprintf "src%d" i) G.Host) in
    let r1 = G.add_node g G.Router and r2 = G.add_node g G.Router in
    let sink = G.add_node g G.Host in
    Array.iter (fun s -> ignore (G.connect g s r1 G.default_props)) sources;
    let trunk_port = fst (G.connect g r1 r2 { G.default_props with G.bandwidth_bps = 2_000_000 }) in
    ignore (G.connect g r2 sink G.default_props);
    let engine = Sim.Engine.create () in
    let world = W.create engine g in
    W.set_buffer_bytes world ~node:r1 ~port:trunk_port (24 * 1024);
    let congestion = if with_control then Some Sirpent.Congestion.default_config else None in
    let config = { Sirpent.Router.default_config with Sirpent.Router.congestion } in
    ignore (Sirpent.Router.create ~config world ~node:r1 ());
    ignore (Sirpent.Router.create ~config world ~node:r2 ());
    let shosts = Array.map (fun s -> Sirpent.Host.create world ~node:s) sources in
    let h_sink = Sirpent.Host.create world ~node:sink in
    Sirpent.Host.set_receive h_sink (fun _ ~packet:_ ~in_port:_ -> ());
    let metric (_ : G.link) = 1.0 in
    Array.iter
      (fun h ->
        let route =
          Sirpent.Route.of_hops g ~src:(Sirpent.Host.node h)
            (Option.get (G.shortest_path g ~metric ~src:(Sirpent.Host.node h) ~dst:sink))
        in
        (* each source offers ~4 Mb/s into a 2 Mb/s trunk *)
        let rec blast n t =
          if n < 1500 then
            Sim.Engine.schedule_at engine ~time:t (fun () ->
                ignore (Sirpent.Host.send h ~route ~data:(Bytes.make 1000 'd') ());
                blast (n + 1) (t + Sim.Time.us 2000))
        in
        blast 0 (Sim.Time.ms 1))
      shosts;
    Sim.Engine.run ~until:(Sim.Time.s 4) engine;
    let st = W.port_stats world ~node:r1 ~port:trunk_port in
    let util = W.utilization world ~node:r1 ~port:trunk_port in
    (st.W.dropped_overflow, Sirpent.Host.received h_sink, util, st.W.mean_queue)
  in
  let d_off, g_off, u_off, q_off = run false in
  let d_on, g_on, u_on, q_on = run true in
  pf "  %-16s %10s %10s %12s %12s\n" "" "drops" "delivered" "trunk util" "mean queue";
  pf "  %-16s %10d %10d %11.1f%% %12.1f\n" "no control" d_off g_off (100. *. u_off) q_off;
  pf "  %-16s %10d %10d %11.1f%% %12.1f\n" "rate control" d_on g_on (100. *. u_on) q_on

(* ---------- phase 2 ---------- *)

let phase2 () =
  pf "\nphase 2: client route failover after a trunk failure\n";
  let g = G.create () in
  let client_h = G.add_node g ~name:"client" G.Host in
  let server_h = G.add_node g ~name:"server" G.Host in
  let ra = G.add_node g ~name:"primary" G.Router in
  let rb = G.add_node g ~name:"backup" G.Router in
  ignore (G.connect g client_h ra G.default_props);
  ignore (G.connect g client_h rb G.default_props);
  let primary_trunk =
    let _, _ = G.connect g ra server_h G.default_props in
    List.find (fun (l : G.link) -> l.G.a = ra || l.G.b = ra) (List.rev (G.links g))
  in
  ignore (G.connect g rb server_h { G.default_props with G.propagation = Sim.Time.us 50 });
  let engine = Sim.Engine.create () in
  let world = W.create engine g in
  ignore (Sirpent.Router.create world ~node:ra ());
  ignore (Sirpent.Router.create world ~node:rb ());
  let h_client = Sirpent.Host.create world ~node:client_h in
  let h_server = Sirpent.Host.create world ~node:server_h in
  let dir = Dirsvc.Directory.create g in
  Dirsvc.Directory.register dir ~name:(Dirsvc.Name.of_string "corp.server") ~node:server_h;
  let routes =
    Dirsvc.Directory.query dir ~client:client_h
      ~target:(Dirsvc.Name.of_string "corp.server") ~k:2 ()
  in
  pf "  directory returned %d routes\n" (List.length routes);
  let client = Vmtp.Entity.create h_client ~id:1L in
  let server = Vmtp.Entity.create h_server ~id:2L in
  Vmtp.Entity.set_request_handler server (fun _ ~data:_ ~reply -> reply (Bytes.of_string "ok"));
  let sroutes = ref (List.map (fun r -> r.Dirsvc.Directory.route) routes) in
  (* remember which route worked: later calls start on the survivor *)
  Vmtp.Entity.set_route_switch_hook client (fun ~failed ~route_index ->
      pf "  t=%-9s transport switched to route %d\n"
        (Format.asprintf "%a" Sim.Time.pp (Sim.Engine.now engine))
        route_index;
      match !sroutes with
      | first :: rest when first = failed -> sroutes := rest @ [ first ]
      | _ -> ());
  (* steady request stream; cut the primary trunk at t = 1 s *)
  let completed = ref 0 and failed = ref 0 in
  let rec caller n t =
    if n < 40 then
      Sim.Engine.schedule_at engine ~time:t (fun () ->
          Vmtp.Entity.call client ~server:2L ~routes:!sroutes
            ~data:(Bytes.make 400 'c')
            ~on_reply:(fun _ ~rtt:_ -> incr completed)
            ~on_fail:(fun _ -> incr failed)
            ();
          caller (n + 1) (t + Sim.Time.ms 100))
  in
  caller 0 (Sim.Time.ms 10);
  Sim.Engine.schedule_at engine ~time:(Sim.Time.s 1) (fun () ->
      pf "  t=1.000s   primary trunk CUT\n";
      W.fail_link world primary_trunk);
  Sim.Engine.run ~until:(Sim.Time.s 10) engine;
  let st = Vmtp.Entity.stats client in
  pf "  calls: %d completed, %d failed, %d route switches, %d retransmitted packets\n"
    !completed !failed st.Vmtp.Entity.route_switches st.Vmtp.Entity.retransmits

let () =
  phase1 ();
  phase2 ()
