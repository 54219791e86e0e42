(* E7 — §6.3 response to link failure: client-driven route failover
   (multiple directory routes + transport timeouts) vs the IP baseline's
   link-state reconvergence (hello dead-interval + flooding + SPF). Both
   run on the same topology:

       src -- r0 -- ra -- r3 -- dst
                \-- rb --/

   with the ra-r3 trunk cut mid-run. The measurement is the service gap:
   time from the cut until deliveries resume. *)

module G = Topo.Graph
module W = Netsim.World

let pf = Printf.printf

let build () =
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
let horizon = Sim.Time.s 30
let send_interval = Sim.Time.ms 20

(* returns (service gap, deliveries) *)
let sirpent_failover () =
  let g, src, dst, doomed = build () in
  let engine = Sim.Engine.create () in
  let world = W.create engine g in
  G.iter_nodes g (fun n ->
      if G.kind g n = G.Router then ignore (Sirpent.Router.create world ~node:n ()));
  let h_src = Sirpent.Host.create world ~node:src in
  let h_dst = Sirpent.Host.create world ~node:dst in
  let dir = Dirsvc.Directory.create g in
  Dirsvc.Directory.register dir ~name:(Dirsvc.Name.of_string "x.dst") ~node:dst;
  let routes =
    Dirsvc.Directory.query dir ~client:src ~target:(Dirsvc.Name.of_string "x.dst") ~k:2 ()
  in
  let sroutes = ref (List.map (fun r -> r.Dirsvc.Directory.route) routes) in
  let client = Vmtp.Entity.create h_src ~id:1L in
  let server = Vmtp.Entity.create h_dst ~id:2L in
  Vmtp.Entity.set_request_handler server (fun _ ~data:_ ~reply -> reply Bytes.empty);
  Vmtp.Entity.set_route_switch_hook client (fun ~failed ~route_index:_ ->
      (* demote exactly the failed route; in-flight stale calls switching
         off an already-demoted route must not rotate the good one away *)
      match !sroutes with
      | a :: b when Sirpent.Route.equal a failed -> sroutes := b @ [ a ]
      | _ -> ());
  let first_after = ref 0 and delivered = ref 0 in
  let rec caller t =
    if t < horizon then
      Sim.Engine.schedule_at engine ~time:t (fun () ->
          Vmtp.Entity.call client ~server:2L ~routes:!sroutes ~data:(Bytes.make 200 'f')
            ~on_reply:(fun _ ~rtt:_ ->
              incr delivered;
              let now = Sim.Engine.now engine in
              if now > cut_time && !first_after = 0 then first_after := now)
            ~on_fail:(fun _ -> ())
            ();
          caller (t + send_interval))
  in
  caller (Sim.Time.ms 10);
  Sim.Engine.schedule_at engine ~time:cut_time (fun () -> W.fail_link world doomed);
  Sim.Engine.run ~until:horizon engine;
  ((if !first_after = 0 then horizon - cut_time else !first_after - cut_time), !delivered)

let ip_failover ~hello_interval =
  let g, src, dst, doomed = build () in
  let engine = Sim.Engine.create () in
  let world = W.create engine g in
  let ls_config = { Ipbase.Linkstate.hello_interval } in
  let config =
    { Ipbase.Router.routing = Ipbase.Router.Linkstate ls_config }
  in
  G.iter_nodes g (fun n ->
      if G.kind g n = G.Router then ignore (Ipbase.Router.create ~config world ~node:n ()));
  let h_src = Ipbase.Host.create world ~node:src in
  let h_dst = Ipbase.Host.create world ~node:dst in
  let first_after = ref 0 and delivered = ref 0 in
  Ipbase.Host.set_receive h_dst (fun _ ~header:_ ~data:_ ->
      incr delivered;
      let now = Sim.Engine.now engine in
      if now > cut_time && !first_after = 0 then first_after := now);
  let rec sender t =
    if t < horizon then
      Sim.Engine.schedule_at engine ~time:t (fun () ->
          ignore (Ipbase.Host.send h_src ~dst ~data:(Bytes.make 200 'f') ());
          sender (t + send_interval))
  in
  sender (Sim.Time.ms 200);
  Sim.Engine.schedule_at engine ~time:cut_time (fun () -> W.fail_link world doomed);
  Sim.Engine.run ~until:horizon engine;
  ((if !first_after = 0 then horizon - cut_time else !first_after - cut_time), !delivered)

let run () =
  Util.heading "E7  \xc2\xa76.3 link failure: client failover vs routing reconvergence";
  pf "src-r0-(ra|rb)-r3-dst, the ra-r3 trunk cut at t=2 s, 50 req/s workload.\n\n";
  let s_gap, s_n = sirpent_failover () in
  let ip_gap_1s, ip_n_1s = ip_failover ~hello_interval:(Sim.Time.s 1) in
  let ip_gap_5s, ip_n_5s = ip_failover ~hello_interval:(Sim.Time.s 5) in
  Util.table
    ~header:[ "architecture"; "service gap (ms)"; "deliveries (30 s)" ]
    [
      [ "Sirpent client failover (2 routes)"; Util.ms s_gap; Util.i s_n ];
      [ "IP link-state, 1 s hellos"; Util.ms ip_gap_1s; Util.i ip_n_1s ];
      [ "IP link-state, 5 s hellos"; Util.ms ip_gap_5s; Util.i ip_n_5s ];
    ];
  pf "\npaper check: the end-to-end client reacts within a few retransmission\n";
  pf "timeouts (tens of ms) because it measures its own round trips; distributed\n";
  pf "routing must first miss %d hellos, then flood and recompute. The multiple\n"
    Ipbase.Linkstate.dead_factor;
  pf "directory routes also cover failures routing cannot see (e.g. a failed\n";
  pf "host interface, \xc2\xa72.2's IP/UDP criticism).\n"
