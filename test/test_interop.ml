(* Tests for the Sirpent-over-IP gateway (§2.3): source routes crossing an
   IP cloud as one logical hop, reply via the trailer, fragmentation across
   a narrow cloud, and transport transactions end to end. *)

module G = Topo.Graph
module W = Netsim.World
module Seg = Viper.Segment

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let tunnel_port = 200

(* src -- gwA == ip cloud (2 routers) == gwB -- dst, returns everything *)
let build ?(cloud_mtu = 1500) () =
  let g = G.create () in
  let src = G.add_node g G.Host and dst = G.add_node g G.Host in
  let gw_a = G.add_node g ~name:"gwA" G.Router in
  let gw_b = G.add_node g ~name:"gwB" G.Router in
  let c1 = G.add_node g G.Router and c2 = G.add_node g G.Router in
  let cloud = { G.default_props with G.mtu = cloud_mtu } in
  ignore (G.connect g src gw_a G.default_props) (* gwA port 1 *);
  let a_cloud = fst (G.connect g gw_a c1 cloud) in
  ignore (G.connect g c1 c2 cloud);
  let b_cloud = fst (G.connect g gw_b c2 cloud) in
  let b_dst = fst (G.connect g gw_b dst G.default_props) in
  let engine = Sim.Engine.create () in
  let world = W.create engine g in
  (* IP routers inside the cloud *)
  ignore (Ipbase.Router.create world ~node:c1 ());
  ignore (Ipbase.Router.create world ~node:c2 ());
  let gwa =
    Interop.Gateway.create world ~node:gw_a ~cloud_port:a_cloud ~tunnel_port
  in
  let gwb =
    Interop.Gateway.create world ~node:gw_b ~cloud_port:b_cloud ~tunnel_port
  in
  let h_src = Sirpent.Host.create world ~node:src in
  let h_dst = Sirpent.Host.create world ~node:dst in
  (g, engine, world, h_src, h_dst, gwa, gwb, gw_b, b_dst)

(* route: src -> gwA (tunnel to gwB) -> out b_dst -> local *)
let tunnel_route ~gw_b_node ~b_dst =
  {
    Sirpent.Route.first_port = 1;
    segments =
      [
        Interop.Gateway.tunnel_segment ~tunnel_port
          ~remote_addr:(Ipbase.Header.addr_of_node gw_b_node) ();
        Seg.make ~port:b_dst ();
        Seg.make ~port:Seg.local_port ();
      ];
  }

let crosses_the_cloud () =
  let _, engine, world, h_src, h_dst, gwa, gwb, gw_b, b_dst = build () in
  let got = ref None in
  Sirpent.Host.set_receive h_dst (fun _ ~packet ~in_port:_ -> got := Some packet);
  let route = tunnel_route ~gw_b_node:gw_b ~b_dst in
  ignore (Sirpent.Host.send h_src ~route ~data:(Bytes.of_string "across the cloud") ());
  Sim.Engine.run engine;
  (match !got with
  | None -> Alcotest.fail "not delivered"
  | Some p ->
    Alcotest.(check string) "data" "across the cloud" (Bytes.to_string p.Viper.Packet.data);
    (* trailer: gwA's sirpent-side entry, then gwB's tunnel entry *)
    check_int "two trailer hops" 2 (List.length (Viper.Packet.trailer p)));
  check_int "gwA encapsulated" 1 (Interop.Gateway.stats gwa).Interop.Gateway.encapsulated;
  check_int "gwB decapsulated" 1 (Interop.Gateway.stats gwb).Interop.Gateway.decapsulated;
  (* handed off into the cloud at gwA, originated again at gwB *)
  check_int "every packet delivered or handed off" 0 (W.conservation world)

let reply_re_enters_tunnel () =
  let _, engine, _, h_src, h_dst, gwa, gwb, gw_b, b_dst = build () in
  let reply = ref None in
  Sirpent.Host.set_receive h_dst (fun h ~packet ~in_port ->
      ignore
        (Sirpent.Host.reply h ~to_packet:packet ~in_port ~data:(Bytes.of_string "back") ()));
  Sirpent.Host.set_receive h_src (fun _ ~packet ~in_port:_ ->
      reply := Some (Bytes.to_string packet.Viper.Packet.data));
  let route = tunnel_route ~gw_b_node:gw_b ~b_dst in
  ignore (Sirpent.Host.send h_src ~route ~data:(Bytes.of_string "there") ());
  Sim.Engine.run engine;
  Alcotest.(check (option string)) "reply crossed back" (Some "back") !reply;
  (* both directions used the tunnel *)
  check_int "gwB encapsulated the reply" 1
    (Interop.Gateway.stats gwb).Interop.Gateway.encapsulated;
  check_int "gwA decapsulated the reply" 1
    (Interop.Gateway.stats gwa).Interop.Gateway.decapsulated

let fragmentation_across_narrow_cloud () =
  (* 576 B cloud MTU; a 1300 B VIPER packet must fragment and reassemble *)
  let _, engine, _, h_src, h_dst, _gwa, gwb, gw_b, b_dst = build ~cloud_mtu:576 () in
  let got = ref 0 in
  Sirpent.Host.set_receive h_dst (fun _ ~packet ~in_port:_ ->
      got := Bytes.length packet.Viper.Packet.data);
  let route = tunnel_route ~gw_b_node:gw_b ~b_dst in
  ignore (Sirpent.Host.send h_src ~route ~data:(Bytes.make 1300 'f') ());
  Sim.Engine.run engine;
  check_int "full payload survived fragmentation" 1300 !got;
  check_int "one logical packet decapsulated" 1
    (Interop.Gateway.stats gwb).Interop.Gateway.decapsulated

let vmtp_transaction_through_tunnel () =
  let _, engine, _, h_src, h_dst, _, _, gw_b, b_dst = build () in
  let client = Vmtp.Entity.create h_src ~id:1L in
  let server = Vmtp.Entity.create h_dst ~id:2L in
  Vmtp.Entity.set_request_handler server (fun _ ~data ~reply ->
      reply (Bytes.make (Bytes.length data / 2) 'r'));
  let ok = ref false in
  Vmtp.Entity.call client ~server:2L
    ~routes:[ tunnel_route ~gw_b_node:gw_b ~b_dst ]
    ~data:(Bytes.make 4000 'q')
    ~on_reply:(fun data ~rtt ->
      ok := true;
      check_int "reply size" 2000 (Bytes.length data);
      check_bool "rtt positive" true (rtt > 0))
    ~on_fail:(fun m -> Alcotest.fail m)
    ();
  Sim.Engine.run ~until:(Sim.Time.s 5) engine;
  check_bool "transaction over the tunnel" true !ok

let bad_tunnel_info_counted () =
  let _, engine, world, h_src, h_dst, gwa, _, _, b_dst = build () in
  Sirpent.Host.set_receive h_dst (fun _ ~packet:_ ~in_port:_ -> ());
  (* tunnel segment with garbage info (wrong length) *)
  let route =
    {
      Sirpent.Route.first_port = 1;
      segments =
        [
          Seg.make ~info:(Bytes.of_string "xyz") ~port:tunnel_port ();
          Seg.make ~port:b_dst ();
          Seg.make ~port:Seg.local_port ();
        ];
    }
  in
  ignore (Sirpent.Host.send h_src ~route ~data:(Bytes.of_string "lost") ());
  Sim.Engine.run engine;
  check_int "not delivered" 0 (Sirpent.Host.received h_dst);
  check_int "counted" 1 (Interop.Gateway.stats gwa).Interop.Gateway.bad_tunnel_info;
  (* the tunnel refused it, so the router dropped it as malformed *)
  check_int "a malformed fate" 1 (W.fate_count world Telemetry.Flight.Malformed);
  check_int "every packet delivered or given a fate" 0 (W.conservation world)

let sirpent_side_still_routes () =
  (* the gateway node is a full Sirpent router for non-tunnel traffic *)
  let g = G.create () in
  let a = G.add_node g G.Host and b = G.add_node g G.Host in
  let gw = G.add_node g G.Router in
  let cloud_stub = G.add_node g G.Router in
  ignore (G.connect g a gw G.default_props);
  ignore (G.connect g b gw G.default_props);
  let cloud_port = fst (G.connect g gw cloud_stub G.default_props) in
  let engine = Sim.Engine.create () in
  let world = W.create engine g in
  ignore (Interop.Gateway.create world ~node:gw ~cloud_port ~tunnel_port);
  let h_a = Sirpent.Host.create world ~node:a in
  let h_b = Sirpent.Host.create world ~node:b in
  Sirpent.Host.set_receive h_b (fun _ ~packet:_ ~in_port:_ -> ());
  let metric (_ : G.link) = 1.0 in
  let route =
    Sirpent.Route.of_hops g ~src:a
      (Option.get (G.shortest_path g ~metric ~src:a ~dst:b))
  in
  ignore (Sirpent.Host.send h_a ~route ~data:(Bytes.of_string "local") ());
  Sim.Engine.run engine;
  check_int "routed through the gateway's sirpent side" 1 (Sirpent.Host.received h_b)

(* The router on the far side of [gw]'s cloud link: the first IP hop. *)
let cloud_entry g gw =
  List.find_map
    (fun (_, l) ->
      let peer, _ = G.peer l gw in
      if G.kind g peer = G.Router then Some peer else None)
    (G.ports g gw)
  |> Option.get

(* Summed over the world's Sirpent routers. *)
let router_send_drops world =
  List.fold_left
    (fun acc (r : Telemetry.Registry.row) ->
      match r.row_sample with
      | Counter_sample n when r.row_name = "router_send_drops" -> acc + n
      | _ -> acc)
    0
    (Telemetry.Registry.snapshot (W.metrics world))

(* A priority-7 packet preempts a large tunnel-bound packet on the
   source host's link after the large one's head has reached gwA. The
   runt must be dropped at gwA's act time, not encapsulated. *)
let preempted_frame_not_tunnelled () =
  let _, engine, world, h_src, h_dst, gwa, gwb, gw_b, b_dst = build () in
  let route = tunnel_route ~gw_b_node:gw_b ~b_dst in
  let got = ref [] in
  Sirpent.Host.set_receive h_dst (fun _ ~packet ~in_port:_ ->
      got := Bytes.length packet.Viper.Packet.data :: !got);
  ignore (Sirpent.Host.send h_src ~route ~data:(Bytes.make 1300 'A') ());
  Sim.Engine.schedule engine ~delay:(Sim.Time.us 400) (fun () ->
      ignore (Sirpent.Host.send h_src ~route ~priority:7 ~data:(Bytes.make 100 'B') ()));
  Sim.Engine.run engine;
  check_int "the large packet was preempted" 1
    (W.port_stats world ~node:(Sirpent.Host.node h_src) ~port:1).W.preempted;
  check_int "only the urgent packet encapsulated" 1
    (Interop.Gateway.stats gwa).Interop.Gateway.encapsulated;
  check_int "the runt is a counted drop" 1 (router_send_drops world);
  check_int "one datagram decapsulated" 1
    (Interop.Gateway.stats gwb).Interop.Gateway.decapsulated;
  Alcotest.(check (list int)) "only the urgent packet arrives" [ 100 ] !got

(* The datagram gwA sends carries the arriving packet with its tunnel
   segment moved to the trailer as the return hop back out port 1: the
   bytes of the record-level loopback operation. *)
let datagram_carries_the_hop () =
  let g, engine, world, h_src, _, gwa, _, gw_b, b_dst = build () in
  let gw_a = Option.get (G.find_by_name g "gwA") in
  let datagrams = ref [] in
  W.set_handler world (cloud_entry g gw_a) (fun _ ~in_port:_ ~frame ~head:_ ~tail:_ ->
      datagrams := Netsim.Frame.contents frame :: !datagrams);
  let route = tunnel_route ~gw_b_node:gw_b ~b_dst in
  let data = Bytes.of_string "into the tunnel" in
  ignore (Sirpent.Host.send h_src ~route ~data ());
  Sim.Engine.run engine;
  check_int "encapsulated" 1 (Interop.Gateway.stats gwa).Interop.Gateway.encapsulated;
  let tunnel_seg = List.hd route.Sirpent.Route.segments in
  let expected =
    Viper.Trailer.append_hop
      (Viper.Packet.build ~route:route.Sirpent.Route.segments ~data)
      ~pos:(Seg.encoded_size tunnel_seg)
      (Seg.make
         ~flags:{ Seg.vnt = false; dib = false; rpf = true }
         ~priority:tunnel_seg.Seg.priority ~token:tunnel_seg.Seg.token ~port:1 ())
  in
  match !datagrams with
  | [ d ] ->
    check_bool "IP header valid" true (Ipbase.Header.checksum_ok d);
    check_int "IP total length" (Bytes.length d)
      (Ipbase.Header.decode d).Ipbase.Header.total_length;
    Alcotest.(check string) "VIPER bytes"
      (Bytes.to_string expected)
      (Bytes.sub_string d Ipbase.Header.size (Bytes.length d - Ipbase.Header.size))
  | l -> Alcotest.failf "%d datagrams" (List.length l)

(* Every single-bit flip in a tunnel-bound packet's trailer is a counted
   bad_tunnel_info at gwA, never an exception out of its handler. *)
let damaged_trailer_counted () =
  let _, engine, world, h_src, _, gwa, _, gw_b, b_dst = build () in
  let route = tunnel_route ~gw_b_node:gw_b ~b_dst in
  let packet =
    Viper.Packet.build ~route:route.Sirpent.Route.segments ~data:(Bytes.of_string "flip")
  in
  let n = Bytes.length packet in
  let trailer_bits = 8 * Bytes.length Viper.Trailer.empty in
  for bit = 0 to trailer_bits - 1 do
    Sim.Engine.schedule engine ~delay:(Sim.Time.ms (bit + 1)) (fun () ->
        let b = Bytes.copy packet in
        let i = n - 1 - (bit / 8) in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (bit mod 8))));
        ignore
          (W.send world ~node:(Sirpent.Host.node h_src) ~port:1 (W.fresh_frame world b)))
  done;
  Sim.Engine.run engine;
  check_int "every flip counted" trailer_bits
    (Interop.Gateway.stats gwa).Interop.Gateway.bad_tunnel_info;
  check_int "none encapsulated" 0 (Interop.Gateway.stats gwa).Interop.Gateway.encapsulated;
  check_int "no handler errors" 0 (W.total_handler_errors world)

(* A packet injected as a window inside a larger buffer (a decapsulated
   datagram, past its IP header) leaves the router with the same bytes
   as one injected from a buffer of its own, and the buffer around the
   window is left as it was. *)
let inject_window_at_offset () =
  let forwarded ~buf ~off ~len =
    let g = G.create () in
    let r = G.add_node g G.Router and sink = G.add_node g G.Host in
    ignore (G.connect g r sink G.default_props) (* r's port 1 *);
    let engine = Sim.Engine.create () in
    let world = W.create engine g in
    let router = Sirpent.Router.create world ~node:r () in
    let got = ref [] in
    W.set_handler world sink (fun _ ~in_port:_ ~frame ~head:_ ~tail:_ ->
        got := Netsim.Frame.contents frame :: !got);
    Sirpent.Router.inject router ~buf ~off ~len ~in_port:tunnel_port
      ~return_info:(Bytes.of_string "\x0a\x00\x00\x07");
    Sim.Engine.run engine;
    !got
  in
  let packet =
    Viper.Packet.build
      ~route:[ Seg.make ~port:1 (); Seg.make ~port:Seg.local_port () ]
      ~data:(Bytes.of_string "decapsulated")
  in
  let len = Bytes.length packet in
  let dgram =
    Bytes.concat Bytes.empty [ Bytes.make Ipbase.Header.size 'h'; packet; Bytes.make 16 't' ]
  in
  let before = Bytes.copy dgram in
  let whole = forwarded ~buf:(Bytes.copy packet) ~off:0 ~len in
  let window = forwarded ~buf:dgram ~off:Ipbase.Header.size ~len in
  check_int "one frame forwarded" 1 (List.length window);
  Alcotest.(check (list string)) "same bytes as a buffer of its own"
    (List.map Bytes.to_string whole) (List.map Bytes.to_string window);
  check_bool "datagram buffer unchanged" true (Bytes.equal before dgram)

let () =
  Alcotest.run "interop"
    [
      ( "tunnel",
        [
          Alcotest.test_case "crosses the cloud" `Quick crosses_the_cloud;
          Alcotest.test_case "reply re-enters tunnel" `Quick reply_re_enters_tunnel;
          Alcotest.test_case "fragmentation across narrow cloud" `Quick
            fragmentation_across_narrow_cloud;
          Alcotest.test_case "vmtp transaction through tunnel" `Quick
            vmtp_transaction_through_tunnel;
          Alcotest.test_case "bad tunnel info" `Quick bad_tunnel_info_counted;
          Alcotest.test_case "sirpent side still routes" `Quick sirpent_side_still_routes;
          Alcotest.test_case "preempted frame not tunnelled" `Quick
            preempted_frame_not_tunnelled;
          Alcotest.test_case "datagram carries the hop" `Quick datagram_carries_the_hop;
          Alcotest.test_case "damaged trailer counted" `Quick damaged_trailer_counted;
          Alcotest.test_case "inject window at offset" `Quick inject_window_at_offset;
        ] );
    ]
