(* E16 — ablation of §2.1's blocked-packet handling: buffered output
   queues vs a Blazenet-style bufferless delay line. The paper lists both
   ("deferral may be accomplished by storing the packet ... or entering it
   into a local delay line"); this measures what the choice costs under
   moderate contention: delivery rate, delay, and the router memory the
   delay line avoids. *)

module G = Topo.Graph
module W = Netsim.World

let pf = Printf.printf

let run_case ~blocked ~label ~load =
  let g = G.create () in
  let srcs = Array.init 2 (fun _ -> G.add_node g G.Host) in
  let r = G.add_node g G.Router in
  let dst = G.add_node g G.Host in
  Array.iter (fun s -> ignore (G.connect g s r G.default_props)) srcs;
  let out = fst (G.connect g r dst G.default_props) in
  let engine = Sim.Engine.create () in
  let world = W.create engine g in
  let config = { Sirpent.Router.default_config with Sirpent.Router.blocked } in
  let router = Sirpent.Router.create ~config world ~node:r () in
  let shosts = Array.map (fun s -> Sirpent.Host.create world ~node:s) srcs in
  let h_dst = Sirpent.Host.create world ~node:dst in
  let delays = Sim.Stats.Summary.create () in
  Sirpent.Host.set_receive h_dst (fun _ ~packet ~in_port:_ ->
      let r = Wire.Buf.reader_of_bytes packet.Viper.Packet.data in
      let born = Wire.Buf.get_u32_int r * 1000 in
      Sim.Stats.Summary.add delays (Sim.Time.to_ms (Sim.Engine.now engine - born)));
  let horizon = Sim.Time.s 2 in
  let n_sent = ref 0 in
  Array.iter
    (fun h ->
      let route = Util.route_of g ~src:(Sirpent.Host.node h) ~dst in
      (* each source offers [load]/2 of the 10 Mb/s output *)
      let gap = Sim.Time.of_seconds (8.0 *. 1000.0 /. (1e7 *. load /. 2.0)) in
      let rec blast t =
        if t < horizon then
          Sim.Engine.schedule_at engine ~time:t (fun () ->
              incr n_sent;
              let payload = Bytes.make 1000 'b' in
              Bytes.set_int32_be payload 0
                (Int32.of_int (Sim.Engine.now engine / 1000));
              ignore (Sirpent.Host.send h ~route ~data:payload ());
              blast (t + gap))
      in
      blast (Sim.Time.us (137 * (1 + Sirpent.Host.node h))))
    shosts;
  Sim.Engine.run ~until:(horizon + Sim.Time.s 1) engine;
  let st = W.port_stats world ~node:r ~port:out in
  let rst = Sirpent.Router.stats router in
  [
    Printf.sprintf "%.1f" load;
    label;
    Util.i (Sim.Stats.Summary.count delays);
    Util.i !n_sent;
    Util.f3 (Sim.Stats.Summary.mean delays);
    Util.f1 st.W.max_queue;
    Util.i rst.Sirpent.Router.delay_line_circuits;
  ]

let run () =
  Util.heading "E16  ablation: blocked-packet handling (buffer vs delay line)";
  pf "2 sources share a 10 Mb/s output; 1000 B packets; 2 s offered.\n";
  pf "delay line: 100 us circuits, max 20 recirculations.\n\n";
  let delay_line =
    Sirpent.Router.Delay_line { delay = Sim.Time.us 100; max_circuits = 20 }
  in
  let rows =
    List.concat_map
      (fun load ->
        [
          run_case ~blocked:Sirpent.Router.Buffer ~label:"buffer" ~load;
          run_case ~blocked:delay_line ~label:"delay line" ~load;
        ])
      [ 0.6; 0.9; 1.2 ]
  in
  Util.table
    ~header:
      [
        "offered"; "handling"; "delivered"; "sent"; "mean delay (ms)";
        "max queue (pkts)"; "recirculations";
      ]
    rows;
  pf "\nreading: the buffer absorbs bursts in router memory (max queue grows);\n";
  pf "the delay line keeps router memory at zero by holding packets on the\n";
  pf "wire loop, at slightly higher delay and, past saturation, recirculation\n";
  pf "losses — the Blazenet trade the paper inherits.\n"
