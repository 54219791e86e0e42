(* Tests for XSR, the constant-size XOR-folded header mode: codec
   round-trips, per-hop step algebra, single-bit corruption detection,
   and end-to-end interop with the VIPER hosts/routers. *)

module G = Topo.Graph
module W = Netsim.World
module Seg = Viper.Segment
module Xsr = Viper.Xsr

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let sniffs b = Xsr.is_xsr_in b ~off:0 ~len:(Bytes.length b)

(* --- codec --- *)

let encode_shape () =
  let b = Xsr.encode ~ports:[ 3; 7 ] ~data:(Bytes.of_string "xyz") () in
  check_int "constant header" (Xsr.header_size + 3) (Bytes.length b);
  check_bool "sniffs" true (sniffs b);
  check_int "hop count" 2 (Xsr.hop_count b);
  check_int "hop idx" 0 (Xsr.hop_idx b);
  check_string "data" "xyz" (Bytes.to_string (Xsr.data b));
  check_bool "viper does not sniff" false
    (sniffs (Viper.Packet.build ~route:[ Seg.make ~port:0 () ] ~data:Bytes.empty))

let encode_rejects () =
  Alcotest.check_raises "empty" (Invalid_argument "Xsr.encode: 1..8 ports")
    (fun () -> ignore (Xsr.encode ~ports:[] ~data:Bytes.empty ()));
  Alcotest.check_raises "too long" (Invalid_argument "Xsr.encode: 1..8 ports")
    (fun () ->
      ignore (Xsr.encode ~ports:(List.init 9 Fun.id) ~data:Bytes.empty ()))

(* the central property: per-hop XOR steps recover exactly the encoded
   port sequence, on random routes through random per-hop in-ports *)
let qcheck_step_recovers_ports =
  QCheck.Test.make ~name:"steps recover the exact port sequence" ~count:300
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 8) (int_range 0 255))
        (small_list (int_range 0 255)))
    (fun (ports, in_port_seed) ->
      let ports = if ports = [] then [ 1 ] else ports in
      let in_port i =
        match List.nth_opt in_port_seed i with Some p -> p | None -> (i * 37) land 0xFF
      in
      let b = Xsr.encode ~ports ~data:(Bytes.of_string "d") () in
      let rec walk i = function
        | [] -> (
          match Xsr.step b ~in_port:(in_port i) with
          | Xsr.Deliver -> true
          | _ -> false)
        | p :: rest -> (
          match Xsr.step b ~in_port:(in_port i) with
          | Xsr.Forward q when q = p -> walk (i + 1) rest
          | _ -> false)
      in
      walk 0 ports
      (* reverse lanes recorded every traversed in-port, newest first *)
      && Xsr.reverse_ports b
         = List.rev (List.mapi (fun i _ -> in_port i) ports))

(* XOR is linear: any single-bit flip anywhere in the header must turn
   the next step into Malformed — never a delivery, never a misroute *)
let qcheck_bit_flip_detected =
  QCheck.Test.make ~name:"every single-bit header flip is detected" ~count:50
    QCheck.(pair (list_of_size Gen.(1 -- 8) (int_range 0 255)) (int_range 0 2))
    (fun (ports, hops_taken) ->
      let ports = if ports = [] then [ 1 ] else ports in
      let hops_taken = min hops_taken (List.length ports - 1) in
      let b = Xsr.encode ~ports ~data:(Bytes.of_string "payload") () in
      for i = 1 to hops_taken do
        match Xsr.step b ~in_port:i with
        | Xsr.Forward _ -> ()
        | _ -> QCheck.Test.fail_report "clean prefix must forward"
      done;
      let ok = ref true in
      for bit = 0 to (Xsr.header_size * 8) - 1 do
        let byte = bit / 8 in
        let mask = 1 lsl (bit mod 8) in
        let flip () =
          Bytes.set b byte
            (Char.chr (Char.code (Bytes.get b byte) lxor mask))
        in
        flip ();
        (match Xsr.step b ~in_port:0 with
        | Xsr.Malformed _ -> ()
        | Xsr.Forward _ | Xsr.Deliver -> ok := false);
        flip () (* restore; Malformed never mutates *)
      done;
      (* the restored packet still works *)
      !ok
      && match Xsr.step b ~in_port:0 with
         | Xsr.Forward _ | Xsr.Deliver -> true
         | Xsr.Malformed _ -> false)

let reverse_route_rides_back () =
  let b = Xsr.encode ~ports:[ 10; 20; 30 ] ~data:(Bytes.of_string "req") () in
  List.iter
    (fun ip ->
      match Xsr.step b ~in_port:ip with
      | Xsr.Forward _ -> ()
      | _ -> Alcotest.fail "must forward")
    [ 5; 6; 7 ];
  (match Xsr.step b ~in_port:8 with
  | Xsr.Deliver -> ()
  | _ -> Alcotest.fail "must deliver");
  Alcotest.(check (list int)) "reverse newest-first" [ 7; 6; 5 ] (Xsr.reverse_ports b);
  (* unfolded into a VIPER packet, the lanes are a trailer whose return
     route is the same path back *)
  let unfolded = Viper.Packet.of_xsr b in
  let ports segs = List.map (fun s -> s.Seg.port) segs in
  check_string "unfolded data" "req" (Bytes.to_string unfolded.Viper.Packet.data);
  Alcotest.(check (list int)) "unfolded route is local" [ Seg.local_port ]
    (ports (Viper.Packet.route unfolded));
  let return_route = Result.get_ok (Viper.Packet.return_route_r unfolded) in
  Alcotest.(check (list int)) "unfolded return route" [ 7; 6; 5 ] (ports return_route);
  check_bool "rpf set" true (List.for_all (fun s -> s.Seg.flags.Seg.rpf) return_route);
  let back =
    Xsr.encode ~priority:(Xsr.priority b) ~ports:(Xsr.reverse_ports b)
      ~data:(Bytes.of_string "rsp") ()
  in
  (* riding the reply: each hop's out-port is the recorded in-port *)
  (match Xsr.step back ~in_port:1 with
  | Xsr.Forward 7 -> ()
  | _ -> Alcotest.fail "first reverse hop");
  (match Xsr.step back ~in_port:2 with
  | Xsr.Forward 6 -> ()
  | _ -> Alcotest.fail "second reverse hop");
  check_int "peek = next lane" 5 (Xsr.next_port back);
  (* the router's codec-agnostic reads see the same header *)
  check_int "packet peek reads the lane" 5
    (Viper.Packet.next_port back ~off:0 ~len:(Bytes.length back))

(* --- end-to-end over the simulator --- *)

let props = G.default_props

let chain n_routers =
  let g = G.create () in
  let h1 = G.add_node g G.Host in
  let routers = Array.init n_routers (fun _ -> G.add_node g G.Router) in
  let h2 = G.add_node g G.Host in
  ignore (G.connect g h1 routers.(0) props);
  for i = 0 to n_routers - 2 do
    ignore (G.connect g routers.(i) routers.(i + 1) props)
  done;
  ignore (G.connect g routers.(n_routers - 1) h2 props);
  let engine = Sim.Engine.create () in
  let world = W.create engine g in
  let router_objs =
    Array.map (fun r -> Sirpent.Router.create world ~node:r ()) routers
  in
  let host1 = Sirpent.Host.create world ~node:h1 in
  let host2 = Sirpent.Host.create world ~node:h2 in
  (g, engine, world, host1, host2, router_objs)

(* Run the engine dry; then every packet the world originated has been
   delivered or given a fate. *)
let run_dry engine w =
  Sim.Engine.run engine;
  check_int "every packet delivered or given a fate" 0 (W.conservation w)

let metric (_ : G.link) = 1.0

let route_between g ~src ~dst =
  match G.shortest_path g ~metric ~src ~dst with
  | Some hops -> Sirpent.Route.of_hops g ~src hops
  | None -> Alcotest.fail "no path"

let xsr_end_to_end () =
  let g, engine, world, h1, h2, routers = chain 4 in
  let route =
    route_between g ~src:(Sirpent.Host.node h1) ~dst:(Sirpent.Host.node h2)
  in
  let got = ref None in
  Sirpent.Host.set_receive h2 (fun _ ~packet ~in_port:_ -> got := Some packet);
  ignore (Sirpent.Host.send_xsr h1 ~route ~data:(Bytes.of_string "over xsr") ());
  run_dry engine world;
  check_int "no handler raised" 0 (W.total_handler_errors world);
  match !got with
  | None -> Alcotest.fail "not delivered"
  | Some p ->
    check_string "data" "over xsr" (Bytes.to_string p.Viper.Packet.data);
    check_int "return hops recorded" 4 (List.length (Viper.Packet.trailer p));
    Array.iter
      (fun r ->
        check_int "each router forwarded" 1
          (Sirpent.Router.stats r).Sirpent.Router.forwarded)
      routers

let xsr_reply_over_viper () =
  (* the synthesized trailer is a real VIPER return route: reply works *)
  let g, engine, world, h1, h2, _ = chain 3 in
  let route =
    route_between g ~src:(Sirpent.Host.node h1) ~dst:(Sirpent.Host.node h2)
  in
  let reply_data = ref None in
  Sirpent.Host.set_receive h2 (fun h ~packet ~in_port ->
      ignore
        (Sirpent.Host.reply h ~to_packet:packet ~in_port
           ~data:(Bytes.of_string "pong") ()));
  Sirpent.Host.set_receive h1 (fun _ ~packet ~in_port:_ ->
      reply_data := Some (Bytes.to_string packet.Viper.Packet.data));
  ignore (Sirpent.Host.send_xsr h1 ~route ~data:(Bytes.of_string "ping") ());
  run_dry engine world;
  check_int "no handler raised" 0 (W.total_handler_errors world);
  Alcotest.(check (option string)) "pong over viper" (Some "pong") !reply_data

let xsr_corruption_counted_never_misrouted () =
  let g, engine, world, h1, h2, routers = chain 1 in
  let route =
    route_between g ~src:(Sirpent.Host.node h1) ~dst:(Sirpent.Host.node h2)
  in
  let payload =
    Xsr.encode ~ports:(Sirpent.Route.ports route) ~data:(Bytes.of_string "x") ()
  in
  (* flip one bit in a forwarding lane before it leaves the host *)
  Bytes.set payload 6 (Char.chr (Char.code (Bytes.get payload 6) lxor 0x10));
  let frame = W.fresh_frame world ?flight:(W.originate world) payload in
  ignore
    (W.send world ~node:(Sirpent.Host.node h1) ~port:route.Sirpent.Route.first_port
       frame);
  run_dry engine world;
  let s = Sirpent.Router.stats routers.(0) in
  check_int "counted dropped_malformed" 1 s.Sirpent.Router.dropped_malformed;
  check_int "never forwarded" 0 s.Sirpent.Router.forwarded;
  check_int "not delivered" 0 (Sirpent.Host.received h2);
  check_int "no handler raised" 0 (W.total_handler_errors world)

let xsr_constant_bytes_on_wire () =
  (* VIPER nets +3 bytes per hop (trailer +7, route -4): by 4 router
     hops the constant XSR header wins on total bytes-on-wire — the E24
     claim in miniature. With tokens or network info it wins earlier. *)
  let routers = 4 in
  let data = Bytes.make 32 'd' in
  let viper_total =
    let route =
      List.init (routers + 1) (fun i ->
          Seg.make ~port:(if i = routers then 0 else i + 1) ())
    in
    let p = ref (Viper.Packet.build ~route ~data) in
    let total = ref 0 in
    for i = 1 to routers do
      total := !total + Bytes.length !p;
      let _, fwd = Viper.Packet.forward !p ~return_seg:(Seg.make ~port:i ()) in
      p := fwd
    done;
    !total + Bytes.length !p
  in
  let xsr =
    Xsr.encode ~ports:(List.init routers (fun i -> i + 1)) ~data ()
  in
  let xsr_total = (routers + 1) * Bytes.length xsr in
  check_int "constant per crossing" (Xsr.header_size + 32) (Bytes.length xsr);
  check_bool "xsr total below viper at 4 hops" true (xsr_total < viper_total)

let () =
  Alcotest.run "xsr"
    [
      ( "codec",
        [
          Alcotest.test_case "encode shape" `Quick encode_shape;
          Alcotest.test_case "encode rejects" `Quick encode_rejects;
          Alcotest.test_case "reverse route rides back" `Quick
            reverse_route_rides_back;
          Alcotest.test_case "constant bytes on wire" `Quick
            xsr_constant_bytes_on_wire;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "delivery over xsr" `Quick xsr_end_to_end;
          Alcotest.test_case "reply over viper" `Quick xsr_reply_over_viper;
          Alcotest.test_case "corruption counted, never misrouted" `Quick
            xsr_corruption_counted_never_misrouted;
        ] );
      ( "properties",
        List.map Seeded.to_alcotest
          [ qcheck_step_recovers_ports; qcheck_bit_flip_detected ] );
    ]
