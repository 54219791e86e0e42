(* E3 — §6.1 M/D/1 validation: "with reasonable load (up to about 70
   percent utilization), M/D/1 modeling suggests an average queue length of
   approximately one packet or less ... the average queueing delay is then
   approximately the transmission time for half of an average packet."
   Poisson arrivals of fixed-size packets into one Sirpent output port;
   measured time-average queue vs the analytic model. *)

module G = Topo.Graph
module W = Netsim.World

let pf = Printf.printf

let packet_bytes = 1000
let rate_bps = 10_000_000

let measure rho =
  let g = G.create () in
  let src = G.add_node g G.Host in
  let r1 = G.add_node g G.Router and r2 = G.add_node g G.Router in
  let sink = G.add_node g G.Host in
  (* fast access link so queueing happens only at the measured trunk *)
  let fast = { G.bandwidth_bps = 100_000_000; propagation = Sim.Time.us 1; mtu = 2000 } in
  let trunk = { G.bandwidth_bps = rate_bps; propagation = Sim.Time.us 5; mtu = 2000 } in
  ignore (G.connect g src r1 fast);
  let trunk_port = fst (G.connect g r1 r2 trunk) in
  ignore (G.connect g r2 sink fast);
  let engine = Sim.Engine.create () in
  let world = W.create engine g in
  ignore (Sirpent.Router.create world ~node:r1 ());
  ignore (Sirpent.Router.create world ~node:r2 ());
  let h_src = Sirpent.Host.create world ~node:src in
  let h_sink = Sirpent.Host.create world ~node:sink in
  Sirpent.Host.set_receive h_sink (fun _ ~packet:_ ~in_port:_ -> ());
  let route = Util.route_of g ~src ~dst:sink in
  (* Poisson arrivals at rho * service rate *)
  let wire_bytes = packet_bytes + 20 (* + viper header/trailer, roughly *) in
  let service_s = float_of_int (8 * wire_bytes) /. float_of_int rate_bps in
  let lambda = rho /. service_s in
  let rng = Sim.Rng.create 0xE3L in
  let src_gen = Workload.Source.poisson rng ~rate_pps:lambda in
  let horizon = Sim.Time.s 30 in
  let rec arrivals t =
    if t < horizon then
      Sim.Engine.schedule_at engine ~time:t (fun () ->
          ignore (Sirpent.Host.send h_src ~route ~data:(Bytes.make packet_bytes 'q') ());
          arrivals (t + Workload.Source.next_gap src_gen))
  in
  arrivals (Sim.Time.ms 1);
  Sim.Engine.run ~until:horizon engine;
  let st = W.port_stats world ~node:r1 ~port:trunk_port in
  let util = W.utilization world ~node:r1 ~port:trunk_port in
  (* measured number-in-system = waiting (mean_queue) + in service (util) *)
  (st.W.mean_queue +. util, util)

let run () =
  Util.heading "E3  \xc2\xa76.1 M/D/1 queue at a Sirpent output port";
  pf "Poisson arrivals, fixed 1000-byte packets, 10 Mb/s trunk, 30 s simulated.\n\n";
  let rows =
    List.map
      (fun rho ->
        let measured, util = measure rho in
        let analytic = Queueing.Models.md1_queue_length rho in
        [
          Util.f2 rho;
          Util.pct util;
          Util.f2 analytic;
          Util.f2 measured;
          Util.f2 (Queueing.Models.md1_wait ~rho ~service:1.0);
        ])
      [ 0.1; 0.3; 0.5; 0.6; 0.7; 0.8; 0.9 ]
  in
  Util.table
    ~header:
      [
        "rho"; "meas. util"; "M/D/1 L"; "measured L"; "wait (pkt times)";
      ]
    rows;
  pf "\npaper check: at rho <= 0.7 the mean number in system stays near one packet,\n";
  pf "and the mean wait at rho = 0.5 is half a packet transmission time.\n"
