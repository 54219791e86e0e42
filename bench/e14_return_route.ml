(* E14 — §2 return-route construction: run a packet across a heterogeneous
   path (point-to-point and Ethernet-portInfo hops), then reverse the
   trailer at the receiver and drive the reply back. Reports the byte-level
   bookkeeping: header shrink, trailer growth, and the network-independent
   reversal cost. *)

module G = Topo.Graph
module Seg = Viper.Segment
module Pkt = Viper.Packet

let pf = Printf.printf

let ether_info ~src_host ~dst_host =
  let w = Wire.Buf.create_writer 14 in
  Ether.Frame.write_header w
    {
      Ether.Frame.dst = Ether.Addr.of_host_id dst_host;
      src = Ether.Addr.of_host_id src_host;
      ethertype = Ether.Frame.ethertype_sirpent;
    };
  Wire.Buf.contents w

let run () =
  Util.heading "E14  \xc2\xa72 return-route construction across heterogeneous hops";
  (* Hand-simulated 3-router path: hop 1 and 3 carry Ethernet portInfo,
     hop 2 is point-to-point (no portInfo). *)
  let route =
    [
      Seg.make ~info:(ether_info ~src_host:1 ~dst_host:2) ~port:3 ();
      Seg.make ~port:7 ();
      Seg.make ~info:(ether_info ~src_host:3 ~dst_host:4) ~port:2 ();
      Seg.make ~port:Seg.local_port ();
    ]
  in
  let data = Bytes.make 256 'd' in
  let packet = ref (Pkt.build ~route ~data) in
  pf "\nforward traversal (packet bytes at each hop):\n";
  Util.table ~header:[ "hop"; "bytes"; "header segs"; "trailer entries" ]
    ([ "origin"; Util.i (Bytes.length !packet); Util.i 4; Util.i 0 ]
    :: List.map
         (fun (hop, in_port) ->
           let pos = Seg.extent_to !packet ~off:0 ~stop:(Bytes.length !packet) in
           let seg = Seg.decode_sub !packet ~off:0 ~len:pos in
           let return_info =
             if Bytes.length seg.Seg.info = Ether.Frame.header_size then begin
               (* the router's field swap *)
               let h, _ = Ether.Frame.decode (Bytes.cat seg.Seg.info Bytes.empty) in
               let w = Wire.Buf.create_writer 14 in
               Ether.Frame.write_header w (Ether.Frame.swap h);
               Wire.Buf.contents w
             end
             else seg.Seg.info
           in
           let return_seg =
             Seg.make
               ~flags:{ Seg.no_flags with Seg.rpf = true }
               ~info:return_info ~port:in_port ()
           in
           packet := Viper.Trailer.append_hop !packet ~pos return_seg;
           let decoded = Result.get_ok (Pkt.parse !packet) in
           [
             Printf.sprintf "router %d" hop;
             Util.i (Bytes.length !packet);
             Util.i (List.length (Pkt.route decoded));
             Util.i (List.length (Pkt.trailer decoded));
           ])
         [ (1, 11); (2, 12); (3, 13) ]);
  let final = Result.get_ok (Pkt.parse !packet) in
  let back = Result.get_ok (Pkt.return_route_r final) in
  pf "\nreceiver-side reversal (network-independent):\n";
  Util.table ~header:[ "return hop"; "port"; "RPF"; "portInfo" ]
    (List.mapi
       (fun k seg ->
         [
           Util.i (k + 1);
           Util.i seg.Seg.port;
           (if seg.Seg.flags.Seg.rpf then "yes" else "no");
           (if Bytes.length seg.Seg.info = 14 then
              let h, _ = Ether.Frame.decode seg.Seg.info in
              Printf.sprintf "ether %s -> %s"
                (Ether.Addr.to_string h.Ether.Frame.src)
                (Ether.Addr.to_string h.Ether.Frame.dst)
            else "(point-to-point)");
         ])
       back);
  pf "\nreturn ports are the arrival ports in reverse order: %s\n"
    (String.concat " " (List.map (fun s -> Util.i s.Seg.port) back));
  pf "Ethernet addresses were swapped per hop, so the reply frames are correct\n";
  pf "without the receiver knowing anything about the intervening networks.\n";
  (* live check over the simulator for good measure *)
  let g, engine, _w, h1, h2, _ = Util.sirpent_chain 3 in
  let ok = ref false in
  Sirpent.Host.set_receive h2 (fun h ~packet ~in_port ->
      ignore (Sirpent.Host.reply h ~to_packet:packet ~in_port ~data:(Bytes.of_string "ok") ()));
  Sirpent.Host.set_receive h1 (fun _ ~packet:_ ~in_port:_ -> ok := true);
  let r = Util.route_of g ~src:(Sirpent.Host.node h1) ~dst:(Sirpent.Host.node h2) in
  ignore (Sirpent.Host.send h1 ~route:r ~data:(Bytes.make 64 'x') ());
  Sim.Engine.run engine;
  pf "\nlive round trip over the simulator using only the trailer: %s\n"
    (if !ok then "PASS" else "FAIL")
