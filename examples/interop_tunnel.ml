(* Interoperation (§2.3): two Sirpent campuses joined across today's IP
   internet. "A Sirpent packet can view the Internet as providing one
   logical hop across its internetwork" — the gateways encapsulate VIPER
   in IP (protocol 94); the reply crosses back using only the return route
   accumulated in the packet trailer.

   Run with:  dune exec examples/interop_tunnel.exe *)

module G = Topo.Graph
module Seg = Viper.Segment

let pf = Printf.printf
let tunnel_port = 200

let () =
  (* Topology: west campus (host, router-gateway) == 3-router IP cloud ==
     east campus (gateway, router, host). *)
  let g = G.create () in
  let west_host = G.add_node g ~name:"west-host" G.Host in
  let gw_west = G.add_node g ~name:"gw-west" G.Router in
  let cloud = Array.init 3 (fun i -> G.add_node g ~name:(Printf.sprintf "ip%d" i) G.Router) in
  let gw_east = G.add_node g ~name:"gw-east" G.Router in
  let east_router = G.add_node g ~name:"east-r" G.Router in
  let east_host = G.add_node g ~name:"east-host" G.Host in
  ignore (G.connect g west_host gw_west G.default_props);
  let west_cloud = fst (G.connect g gw_west cloud.(0) { G.default_props with G.mtu = 576 }) in
  ignore (G.connect g cloud.(0) cloud.(1) { G.default_props with G.mtu = 576 });
  ignore (G.connect g cloud.(1) cloud.(2) { G.default_props with G.mtu = 576 });
  let east_cloud = fst (G.connect g gw_east cloud.(2) { G.default_props with G.mtu = 576 }) in
  let east_out = fst (G.connect g gw_east east_router G.default_props) in
  let east_deliver = fst (G.connect g east_router east_host G.default_props) in

  let engine = Sim.Engine.create () in
  let world = Netsim.World.create engine g in
  Array.iter (fun n -> ignore (Ipbase.Router.create world ~node:n ())) cloud;
  let gwa =
    Interop.Gateway.create world ~node:gw_west ~cloud_port:west_cloud ~tunnel_port
  in
  let gwb =
    Interop.Gateway.create world ~node:gw_east ~cloud_port:east_cloud ~tunnel_port
  in
  ignore (Sirpent.Router.create world ~node:east_router ());
  let h_west = Sirpent.Host.create world ~node:west_host in
  let h_east = Sirpent.Host.create world ~node:east_host in

  (* The source route: into the tunnel at gw-west (portInfo = gw-east's IP
     address), then two ordinary Sirpent hops on the east side. *)
  let route =
    {
      Sirpent.Route.first_port = 1;
      segments =
        [
          Interop.Gateway.tunnel_segment ~tunnel_port
            ~remote_addr:(Ipbase.Header.addr_of_node gw_east) ();
          Seg.make ~port:east_out ();
          Seg.make ~port:east_deliver ();
          Seg.make ~port:Seg.local_port ();
        ];
    }
  in
  pf "source route (west-host's view):\n";
  List.iteri
    (fun i s ->
      pf "  seg %d: port %3d%s\n" i s.Seg.port
        (if s.Seg.port = tunnel_port then
           Printf.sprintf "  <- tunnel to %s"
             (Ipbase.Header.addr_to_string (Ipbase.Header.addr_of_node gw_east))
         else ""))
    route.Sirpent.Route.segments;

  Sirpent.Host.set_receive h_east (fun h ~packet ~in_port ->
      pf "\n[east-host] got %d bytes at %s; trailer has %d return hops\n"
        (Bytes.length packet.Viper.Packet.data)
        (Format.asprintf "%a" Sim.Time.pp (Sim.Engine.now engine))
        (List.length (Viper.Packet.trailer packet));
      ignore
        (Sirpent.Host.reply h ~to_packet:packet ~in_port
           ~data:(Bytes.of_string "greetings from the east") ()));
  Sirpent.Host.set_receive h_west (fun _ ~packet ~in_port:_ ->
      pf "[west-host] reply %S at %s\n"
        (Bytes.to_string packet.Viper.Packet.data)
        (Format.asprintf "%a" Sim.Time.pp (Sim.Engine.now engine)));

  (* a 1300-byte message: must fragment inside the 576-byte-MTU cloud *)
  ignore (Sirpent.Host.send h_west ~route ~data:(Bytes.make 1300 'w') ());
  Sim.Engine.run engine;

  let sa = Interop.Gateway.stats gwa and sb = Interop.Gateway.stats gwb in
  pf "\ngateway west: %d encapsulated, %d decapsulated\n"
    sa.Interop.Gateway.encapsulated sa.Interop.Gateway.decapsulated;
  pf "gateway east: %d encapsulated, %d decapsulated\n"
    sb.Interop.Gateway.encapsulated sb.Interop.Gateway.decapsulated;
  pf "(the 576 B cloud MTU forced IP fragmentation; the gateways reassembled)\n"
