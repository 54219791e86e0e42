(* E15 — §2.3 interoperation: "all existing networks (and internetworks)
   can be incorporated into the Sirpent approach." A source route crosses
   an IP cloud as one logical hop via gateways that encapsulate VIPER in IP
   (protocol 94). Measures the tunnel's cost vs a native Sirpent path of
   the same shape, and shows replies crossing back with no routing state. *)

module G = Topo.Graph
module W = Netsim.World
module Seg = Viper.Segment

let pf = Printf.printf
let tunnel_port = 200

(* src - gwA = cloud(n routers) = gwB - dst *)
let tunnel_world ~cloud_routers =
  let g = G.create () in
  let src = G.add_node g G.Host and dst = G.add_node g G.Host in
  let gw_a = G.add_node g G.Router and gw_b = G.add_node g G.Router in
  let cloud = Array.init cloud_routers (fun _ -> G.add_node g G.Router) in
  ignore (G.connect g src gw_a G.default_props);
  let a_cloud = fst (G.connect g gw_a cloud.(0) G.default_props) in
  for k = 0 to cloud_routers - 2 do
    ignore (G.connect g cloud.(k) cloud.(k + 1) G.default_props)
  done;
  let b_cloud = fst (G.connect g gw_b cloud.(cloud_routers - 1) G.default_props) in
  let b_dst = fst (G.connect g gw_b dst G.default_props) in
  let engine = Sim.Engine.create () in
  let world = W.create engine g in
  Array.iter (fun n -> ignore (Ipbase.Router.create world ~node:n ())) cloud;
  ignore (Interop.Gateway.create world ~node:gw_a ~cloud_port:a_cloud ~tunnel_port);
  ignore (Interop.Gateway.create world ~node:gw_b ~cloud_port:b_cloud ~tunnel_port);
  let h_src = Sirpent.Host.create world ~node:src in
  let h_dst = Sirpent.Host.create world ~node:dst in
  let route =
    {
      Sirpent.Route.first_port = 1;
      segments =
        [
          Interop.Gateway.tunnel_segment ~tunnel_port
            ~remote_addr:(Ipbase.Header.addr_of_node gw_b) ();
          Seg.make ~port:b_dst ();
          Seg.make ~port:Seg.local_port ();
        ];
    }
  in
  (engine, h_src, h_dst, route)

let rtt_of ~engine ~h_src ~h_dst ~route ~bytes =
  let t_reply = ref 0 in
  Sirpent.Host.set_receive h_dst (fun h ~packet ~in_port ->
      ignore (Sirpent.Host.reply h ~to_packet:packet ~in_port ~data:(Bytes.make 64 'r') ()));
  Sirpent.Host.set_receive h_src (fun _ ~packet:_ ~in_port:_ ->
      t_reply := Sim.Engine.now engine);
  ignore (Sirpent.Host.send h_src ~route ~data:(Bytes.make bytes 'q') ());
  Sim.Engine.run engine;
  !t_reply

let native_rtt ~n_routers ~bytes =
  let g, engine, _w, h1, h2, _ = Util.sirpent_chain (n_routers + 2) in
  ignore g;
  let t_reply = ref 0 in
  Sirpent.Host.set_receive h2 (fun h ~packet ~in_port ->
      ignore (Sirpent.Host.reply h ~to_packet:packet ~in_port ~data:(Bytes.make 64 'r') ()));
  Sirpent.Host.set_receive h1 (fun _ ~packet:_ ~in_port:_ ->
      t_reply := Sim.Engine.now engine);
  let route = Util.route_of g ~src:(Sirpent.Host.node h1) ~dst:(Sirpent.Host.node h2) in
  ignore (Sirpent.Host.send h1 ~route ~data:(Bytes.make bytes 'q') ());
  Sim.Engine.run engine;
  !t_reply

let run () =
  Util.heading "E15  \xc2\xa72.3 Sirpent over IP: the internet as one logical hop";
  pf "source route: [tunnel(gwB) | out | local]; cloud = IP routers\n";
  pf "(store-and-forward, 100 us processing); VIPER encapsulated as protocol 94.\n\n";
  let rows =
    List.concat_map
      (fun cloud_routers ->
        List.map
          (fun bytes ->
            let engine, h_src, h_dst, route = tunnel_world ~cloud_routers in
            let tunnel = rtt_of ~engine ~h_src ~h_dst ~route ~bytes in
            let native = native_rtt ~n_routers:cloud_routers ~bytes in
            [
              Util.i cloud_routers;
              Util.i bytes;
              Util.ms tunnel;
              Util.ms native;
              Util.f1 (float_of_int tunnel /. float_of_int native);
            ])
          [ 200; 1200 ])
      [ 2; 4 ]
  in
  Util.table
    ~header:
      [ "cloud routers"; "request B"; "tunnel rtt (ms)"; "all-Sirpent rtt (ms)"; "ratio" ]
    rows;
  pf "\npaper check: the tunnel works transparently — the reply crosses back using\n";
  pf "only the trailer — at the price of the cloud's store-and-forward IP hops\n";
  pf "and 20 B of encapsulation; the route sees one logical hop either way.\n"
