(* E9 — §1's critique of the CVC approach, quantified: (a) transactional
   traffic pays a setup round trip per logical connection and leaves
   per-switch circuit state behind; (b) an 8 Mb/s bursty stream on a
   1 Gb/s link uses <1% of the reserved bandwidth, so held circuits strand
   capacity. Sirpent datagrams pay neither. *)

module G = Topo.Graph
module W = Netsim.World

let pf = Printf.printf

let chain_arch () =
  let g = G.create () in
  let h1 = G.add_node g G.Host in
  let r = Array.init 3 (fun _ -> G.add_node g G.Router) in
  let h2 = G.add_node g G.Host in
  ignore (G.connect g h1 r.(0) G.default_props);
  ignore (G.connect g r.(0) r.(1) G.default_props);
  ignore (G.connect g r.(1) r.(2) G.default_props);
  ignore (G.connect g r.(2) h2 G.default_props);
  (g, h1, r, h2)

(* transaction: 200 B request, 200 B response; returns (first-response time,
   per-switch state entries after) *)
let transaction_cvc () =
  let g, h1, r, h2 = chain_arch () in
  let engine = Sim.Engine.create () in
  let world = W.create engine g in
  let switches = Array.map (fun n -> Cvc.Switch.create world ~node:n) r in
  let e1 = Cvc.Endpoint.create world ~node:h1 in
  let e2 = Cvc.Endpoint.create world ~node:h2 in
  let t_reply = ref 0 in
  Cvc.Endpoint.set_receive e2 (fun e c data -> ignore (Cvc.Endpoint.send_data e c data));
  Cvc.Endpoint.set_receive e1 (fun _ _ _ -> t_reply := Sim.Engine.now engine);
  Cvc.Endpoint.open_circuit e1 ~dst:h2
    ~on_open:(fun c -> ignore (Cvc.Endpoint.send_data e1 c (Bytes.make 200 't')))
    ~on_fail:(fun m -> failwith m)
    ();
  Sim.Engine.run engine;
  let state = Array.fold_left (fun acc s -> acc + Cvc.Switch.circuit_entries s) 0 switches in
  (!t_reply, state)

let transaction_sirpent () =
  let g, h1, r, h2 = chain_arch () in
  let engine = Sim.Engine.create () in
  let world = W.create engine g in
  Array.iter (fun n -> ignore (Sirpent.Router.create world ~node:n ())) r;
  let s1 = Sirpent.Host.create world ~node:h1 in
  let s2 = Sirpent.Host.create world ~node:h2 in
  let t_reply = ref 0 in
  Sirpent.Host.set_receive s2 (fun h ~packet ~in_port ->
      ignore (Sirpent.Host.reply h ~to_packet:packet ~in_port ~data:(Bytes.make 200 'r') ()));
  Sirpent.Host.set_receive s1 (fun _ ~packet:_ ~in_port:_ -> t_reply := Sim.Engine.now engine);
  let route = Util.route_of g ~src:h1 ~dst:h2 in
  ignore (Sirpent.Host.send s1 ~route ~data:(Bytes.make 200 't') ());
  Sim.Engine.run engine;
  (!t_reply, 0)

let transaction_ip () =
  let g, h1, r, h2 = chain_arch () in
  let engine = Sim.Engine.create () in
  let world = W.create engine g in
  let robjs = Array.map (fun n -> Ipbase.Router.create world ~node:n ()) r in
  let i1 = Ipbase.Host.create world ~node:h1 in
  let i2 = Ipbase.Host.create world ~node:h2 in
  let t_reply = ref 0 in
  Ipbase.Host.set_receive i2 (fun h ~header:_ ~data ->
      ignore (Ipbase.Host.send h ~dst:h1 ~data ()));
  Ipbase.Host.set_receive i1 (fun _ ~header:_ ~data:_ -> t_reply := Sim.Engine.now engine);
  ignore (Ipbase.Host.send i1 ~dst:h2 ~data:(Bytes.make 200 't') ());
  Sim.Engine.run engine;
  let state = Array.fold_left (fun acc ro -> acc + Ipbase.Router.table_size ro) 0 robjs in
  (!t_reply, state)

(* bursty 8 Mb/s stream on a 1 Gb/s link (§1's example): measured link
   occupancy vs reserved share *)
let bursty_utilization () =
  let g = G.create () in
  let src = G.add_node g G.Host and dst = G.add_node g G.Host in
  let r1 = G.add_node g G.Router and r2 = G.add_node g G.Router in
  let gig = { G.bandwidth_bps = 1_000_000_000; propagation = Sim.Time.us 100; mtu = 1500 } in
  ignore (G.connect g src r1 gig);
  let trunk = fst (G.connect g r1 r2 gig) in
  ignore (G.connect g r2 dst gig);
  let engine = Sim.Engine.create () in
  let world = W.create engine g in
  ignore (Sirpent.Router.create world ~node:r1 ());
  ignore (Sirpent.Router.create world ~node:r2 ());
  let h_src = Sirpent.Host.create world ~node:src in
  let h_dst = Sirpent.Host.create world ~node:dst in
  Sirpent.Host.set_receive h_dst (fun _ ~packet:_ ~in_port:_ -> ());
  let route = Util.route_of g ~src ~dst in
  (* 8 Mb/s = 1000 x 1000-byte packets/s *)
  let horizon = Sim.Time.s 2 in
  let rec streamer t =
    if t < horizon then
      Sim.Engine.schedule_at engine ~time:t (fun () ->
          ignore (Sirpent.Host.send h_src ~route ~data:(Bytes.make 1000 'v') ());
          streamer (t + Sim.Time.ms 1))
  in
  streamer 0;
  Sim.Engine.run ~until:horizon engine;
  W.utilization world ~node:r1 ~port:trunk

let run () =
  Util.heading "E9  \xc2\xa71 CVC vs datagram architectures";
  Util.subheading "one transaction over a 3-switch path (200 B each way)";
  let t_cvc, s_cvc = transaction_cvc () in
  let t_sir, s_sir = transaction_sirpent () in
  let t_ip, s_ip = transaction_ip () in
  Util.table
    ~header:[ "architecture"; "request->reply (ms)"; "per-path switch state entries" ]
    [
      [ "Sirpent (source routes)"; Util.ms t_sir; Util.i s_sir ];
      [ "IP datagram"; Util.ms t_ip; Util.i s_ip ];
      [ "CVC (setup + data + reply)"; Util.ms t_cvc; Util.i s_cvc ];
    ];
  Util.subheading "8 Mb/s stream on a 1 Gb/s trunk (\xc2\xa71's burstiness example)";
  let util = bursty_utilization () in
  Util.table
    ~header:[ "quantity"; "value" ]
    [
      [ "measured trunk occupancy"; Util.pct util ];
      [ "CVC reservation for the same stream"; "0.80% held for the circuit lifetime" ];
      [ "paper's figure"; "\"less than 1 percent of the bandwidth\"" ];
    ];
  pf "\npaper check: the CVC transaction pays the setup round trip (dominating the\n";
  pf "data transfer) and leaves two table entries per switch; the datagram\n";
  pf "architectures carry the same transaction with no setup and no circuit state.\n"
