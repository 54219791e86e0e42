(* Tests for the IP baseline: checksum, header, fragmentation, link-state
   routing, and end-to-end datagram delivery. *)

module G = Topo.Graph
module W = Netsim.World

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Checksum *)

let checksum_known_vector () =
  (* Classic RFC 1071 example: the checksum of 00 01 f2 03 f4 f5 f6 f7
     has ones-complement sum 0xddf2 -> checksum 0x220d. *)
  let b = Wire.Hex.to_bytes "0001f203f4f5f6f7" in
  check_int "rfc1071 example" 0x220D (Ipbase.Checksum.compute b)

let checksum_odd_length () =
  let b = Wire.Hex.to_bytes "01" in
  check_int "odd pads with zero" (lnot 0x0100 land 0xFFFF) (Ipbase.Checksum.compute b)

let checksum_self_validates () =
  let b = Bytes.of_string "some random data here!" in
  let sum = Ipbase.Checksum.compute b in
  let with_sum = Bytes.cat b (let t = Bytes.create 2 in Bytes.set_uint16_be t 0 sum; t) in
  check_bool "valid with appended checksum" true (Ipbase.Checksum.valid with_sum)

let checksum_incremental_matches () =
  (* Verify RFC 1624 incremental update against full recomputation. *)
  let b = Bytes.of_string "\x45\x00\x01\x02\x03\x04\x05\x06" in
  let full_before = Ipbase.Checksum.compute b in
  let old_u16 = Bytes.get_uint16_be b 2 in
  Bytes.set_uint16_be b 2 0xBEEF;
  let full_after = Ipbase.Checksum.compute b in
  let incremental =
    Ipbase.Checksum.incremental_update ~old_checksum:full_before ~old_u16
      ~new_u16:0xBEEF
  in
  check_int "incremental = full" full_after incremental

(* Header *)

let sample_header =
  {
    Ipbase.Header.tos = 0;
    total_length = 120;
    ident = 0x1234;
    dont_fragment = false;
    more_fragments = false;
    frag_offset = 0;
    ttl = 32;
    protocol = 17;
    src = Ipbase.Header.addr_of_node 1;
    dst = Ipbase.Header.addr_of_node 2;
  }

let header_roundtrip () =
  let b = Ipbase.Header.encode sample_header in
  check_int "20 bytes" 20 (Bytes.length b);
  check_bool "checksum ok" true (Ipbase.Header.checksum_ok b);
  let h = Ipbase.Header.decode b in
  check_bool "fields" true (h = sample_header)

let header_addressing () =
  check_int "node roundtrip" 42
    (Ipbase.Header.node_of_addr (Ipbase.Header.addr_of_node 42));
  Alcotest.(check string) "dotted quad" "10.0.0.7"
    (Ipbase.Header.addr_to_string (Ipbase.Header.addr_of_node 7))

let header_ttl_decrement_keeps_checksum () =
  let b = Ipbase.Header.encode sample_header in
  let new_ttl = Ipbase.Header.decrement_ttl b in
  check_int "ttl down" 31 new_ttl;
  check_bool "checksum still valid (incremental)" true (Ipbase.Header.checksum_ok b)

let header_corruption_detected () =
  let b = Ipbase.Header.encode sample_header in
  Bytes.set b 13 (Char.chr (Char.code (Bytes.get b 13) lxor 0x10));
  check_bool "invalid" false (Ipbase.Header.checksum_ok b)

(* Fragmentation *)

let frag_splits_and_reassembles () =
  let data = Bytes.init 2000 (fun i -> Char.chr (i land 0xFF)) in
  let h = { sample_header with Ipbase.Header.total_length = 20 + 2000 } in
  let packet = Bytes.cat (Ipbase.Header.encode h) data in
  let fragments = Ipbase.Frag.fragment packet ~mtu:576 in
  check_bool "several fragments" true (List.length fragments >= 4);
  List.iter
    (fun fragment_bytes ->
      check_bool "each fits mtu" true (Bytes.length fragment_bytes <= 576);
      check_bool "each checksums" true (Ipbase.Header.checksum_ok fragment_bytes))
    fragments;
  let r = Ipbase.Frag.Reassembly.create () in
  let result = ref None in
  List.iter
    (fun fragment_bytes ->
      match Ipbase.Frag.Reassembly.offer r ~now:0 fragment_bytes with
      | Some whole -> result := Some whole
      | None -> ())
    fragments;
  match !result with
  | None -> Alcotest.fail "did not reassemble"
  | Some whole ->
    let payload = Bytes.sub whole 20 (Bytes.length whole - 20) in
    check_bool "payload identical" true (Bytes.equal payload data)

let frag_out_of_order_reassembly () =
  let data = Bytes.init 1500 (fun i -> Char.chr ((i * 7) land 0xFF)) in
  let h = { sample_header with Ipbase.Header.total_length = 20 + 1500 } in
  let packet = Bytes.cat (Ipbase.Header.encode h) data in
  let fragments = Array.of_list (Ipbase.Frag.fragment packet ~mtu:576) in
  let rng = Sim.Rng.create 3L in
  Sim.Rng.shuffle rng fragments;
  let r = Ipbase.Frag.Reassembly.create () in
  let result = ref None in
  Array.iter
    (fun fragment_bytes ->
      match Ipbase.Frag.Reassembly.offer r ~now:0 fragment_bytes with
      | Some whole -> result := Some whole
      | None -> ())
    fragments;
  check_bool "reassembled out of order" true (!result <> None)

let frag_respects_df () =
  let data = Bytes.make 2000 'x' in
  let h =
    { sample_header with Ipbase.Header.dont_fragment = true; total_length = 2020 }
  in
  let packet = Bytes.cat (Ipbase.Header.encode h) data in
  Alcotest.check_raises "df refuses" (Failure "dont-fragment") (fun () ->
      ignore (Ipbase.Frag.fragment packet ~mtu:576))

let frag_timeout_is_all_or_nothing () =
  let data = Bytes.make 1500 'x' in
  let h = { sample_header with Ipbase.Header.total_length = 1520 } in
  let packet = Bytes.cat (Ipbase.Header.encode h) data in
  let fragments = Ipbase.Frag.fragment packet ~mtu:576 in
  let r = Ipbase.Frag.Reassembly.create ~timeout:(Sim.Time.s 1) () in
  (* feed all but one fragment *)
  (match fragments with
  | _ :: rest ->
    List.iter (fun f -> ignore (Ipbase.Frag.Reassembly.offer r ~now:0 f)) rest
  | [] -> Alcotest.fail "expected fragments");
  check_int "pending" 1 (Ipbase.Frag.Reassembly.pending r);
  (* trigger collection well past the deadline with an unrelated packet *)
  let other = Bytes.cat (Ipbase.Header.encode sample_header) (Bytes.make 100 'y') in
  ignore (Ipbase.Frag.Reassembly.offer r ~now:(Sim.Time.s 5) other);
  check_int "expired" 1 (Ipbase.Frag.Reassembly.expired r)

let qcheck_frag_roundtrip =
  QCheck.Test.make ~name:"fragment/reassemble roundtrip" ~count:50
    QCheck.(pair (int_range 1 4000) (int_range 100 1500))
    (fun (len, mtu) ->
      let data = Bytes.init len (fun i -> Char.chr (i land 0xFF)) in
      let h = { sample_header with Ipbase.Header.total_length = 20 + len } in
      let packet = Bytes.cat (Ipbase.Header.encode h) data in
      match Ipbase.Frag.fragment packet ~mtu with
      | exception Invalid_argument _ -> mtu < 28
      | fragments ->
        let r = Ipbase.Frag.Reassembly.create () in
        let result = ref None in
        List.iter
          (fun f ->
            match Ipbase.Frag.Reassembly.offer r ~now:0 f with
            | Some whole -> result := Some whole
            | None -> ())
          fragments;
        (match !result with
        | Some whole -> Bytes.equal (Bytes.sub whole 20 len) data
        | None -> false))

(* End-to-end over the simulator *)

let ip_world n_routers routing =
  let g = G.create () in
  let h1 = G.add_node g G.Host in
  let routers = Array.init n_routers (fun _ -> G.add_node g G.Router) in
  let h2 = G.add_node g G.Host in
  ignore (G.connect g h1 routers.(0) G.default_props);
  for i = 0 to n_routers - 2 do
    ignore (G.connect g routers.(i) routers.(i + 1) G.default_props)
  done;
  ignore (G.connect g routers.(n_routers - 1) h2 G.default_props);
  let engine = Sim.Engine.create () in
  let world = W.create engine g in
  let config = { Ipbase.Router.routing } in
  let robjs = Array.map (fun r -> Ipbase.Router.create ~config world ~node:r ()) routers in
  let host1 = Ipbase.Host.create world ~node:h1 in
  let host2 = Ipbase.Host.create world ~node:h2 in
  (g, engine, world, host1, host2, robjs)

let static_end_to_end () =
  let _, engine, _, h1, h2, _ = ip_world 3 Ipbase.Router.Static in
  let got = ref None in
  Ipbase.Host.set_receive h2 (fun _ ~header ~data ->
      got := Some (header.Ipbase.Header.ttl, Bytes.to_string data));
  ignore (Ipbase.Host.send h1 ~dst:(Ipbase.Host.node h2) ~data:(Bytes.of_string "dgram") ());
  Sim.Engine.run engine;
  match !got with
  | None -> Alcotest.fail "not delivered"
  | Some (ttl, data) ->
    Alcotest.(check string) "data" "dgram" data;
    check_int "ttl decremented by 3 routers" (32 - 3) ttl

let ttl_expiry_drops () =
  let _, engine, _, h1, h2, routers = ip_world 3 Ipbase.Router.Static in
  Ipbase.Host.set_receive h2 (fun _ ~header:_ ~data:_ -> ());
  ignore (Ipbase.Host.send h1 ~dst:(Ipbase.Host.node h2) ~ttl:2 ~data:(Bytes.of_string "x") ());
  Sim.Engine.run engine;
  check_int "not delivered" 0 (Ipbase.Host.received h2);
  let total_ttl_drops =
    Array.fold_left
      (fun acc r -> acc + (Ipbase.Router.stats r).Ipbase.Router.dropped_ttl)
      0 routers
  in
  check_int "dropped at ttl=0" 1 total_ttl_drops

let router_fragments_mid_path () =
  (* First link has big MTU, second small: router must fragment. *)
  let g = G.create () in
  let h1 = G.add_node g G.Host and r = G.add_node g G.Router and h2 = G.add_node g G.Host in
  ignore (G.connect g h1 r { G.default_props with G.mtu = 4000 });
  ignore (G.connect g r h2 { G.default_props with G.mtu = 576 });
  let engine = Sim.Engine.create () in
  let world = W.create engine g in
  let router = Ipbase.Router.create world ~node:r () in
  let host1 = Ipbase.Host.create world ~node:h1 in
  let host2 = Ipbase.Host.create world ~node:h2 in
  let got = ref 0 in
  Ipbase.Host.set_receive host2 (fun _ ~header:_ ~data -> got := Bytes.length data);
  ignore (Ipbase.Host.send host1 ~dst:h2 ~data:(Bytes.make 3000 'f') ());
  Sim.Engine.run engine;
  check_int "reassembled full size" 3000 !got;
  check_bool "router fragmented" true
    ((Ipbase.Router.stats router).Ipbase.Router.fragments_created >= 2)

let corrupted_header_dropped () =
  let g = G.create () in
  let h1 = G.add_node g G.Host and r = G.add_node g G.Router and h2 = G.add_node g G.Host in
  let l1 = G.connect g h1 r G.default_props in
  ignore l1;
  ignore (G.connect g r h2 G.default_props);
  let engine = Sim.Engine.create () in
  let world = W.create engine g in
  (* corrupt everything on link 0 *)
  W.set_bit_error_rate world ~link_id:0 1e-3;
  let router = Ipbase.Router.create world ~node:r () in
  let host1 = Ipbase.Host.create world ~node:h1 in
  let host2 = Ipbase.Host.create world ~node:h2 in
  Ipbase.Host.set_receive host2 (fun _ ~header:_ ~data:_ -> ());
  for _ = 1 to 50 do
    ignore (Ipbase.Host.send host1 ~dst:h2 ~data:(Bytes.make 100 'x') ())
  done;
  Sim.Engine.run engine;
  let st = Ipbase.Router.stats router in
  check_bool "router dropped corrupt headers" true (st.Ipbase.Router.dropped_checksum > 0)

let linkstate_converges_and_delivers () =
  let _, engine, _, h1, h2, routers =
    ip_world 3 (Ipbase.Router.Linkstate Ipbase.Linkstate.default_config)
  in
  Ipbase.Host.set_receive h2 (fun _ ~header:_ ~data:_ -> ());
  (* give the protocol time to flood and compute *)
  Sim.Engine.schedule engine ~delay:(Sim.Time.ms 100) (fun () ->
      ignore (Ipbase.Host.send h1 ~dst:(Ipbase.Host.node h2) ~data:(Bytes.of_string "ls") ()));
  Sim.Engine.run ~until:(Sim.Time.s 2) engine;
  check_int "delivered" 1 (Ipbase.Host.received h2);
  Array.iter
    (fun r ->
      match Ipbase.Router.linkstate r with
      | None -> Alcotest.fail "linkstate"
      | Some ls ->
        (* every router's LSDB has all 3 router LSAs: O(topology) state *)
        check_int "full topology stored" 3 (Ipbase.Linkstate.lsdb_entries ls))
    routers

let linkstate_reconverges_after_failure () =
  (* square of routers: r0-r1-r3 and r0-r2-r3; fail r0-r1, traffic shifts. *)
  let g = G.create () in
  let h1 = G.add_node g G.Host and h2 = G.add_node g G.Host in
  let r = Array.init 4 (fun _ -> G.add_node g G.Router) in
  ignore (G.connect g h1 r.(0) G.default_props);
  let l01 = G.connect g r.(0) r.(1) G.default_props in
  ignore l01;
  ignore (G.connect g r.(1) r.(3) G.default_props);
  ignore (G.connect g r.(0) r.(2) G.default_props);
  ignore (G.connect g r.(2) r.(3) { G.default_props with G.propagation = Sim.Time.us 50 });
  ignore (G.connect g r.(3) h2 G.default_props);
  let engine = Sim.Engine.create () in
  let world = W.create engine g in
  let config =
    { Ipbase.Router.routing = Ipbase.Router.Linkstate Ipbase.Linkstate.default_config }
  in
  Array.iter (fun n -> ignore (Ipbase.Router.create ~config world ~node:n ())) r;
  let host1 = Ipbase.Host.create world ~node:h1 in
  let host2 = Ipbase.Host.create world ~node:h2 in
  Ipbase.Host.set_receive host2 (fun _ ~header:_ ~data:_ -> ());
  (* steady stream *)
  let rec sender t =
    if t < Sim.Time.s 20 then
      Sim.Engine.schedule_at engine ~time:t (fun () ->
          ignore (Ipbase.Host.send host1 ~dst:h2 ~data:(Bytes.make 64 's') ());
          sender (t + Sim.Time.ms 100))
  in
  sender (Sim.Time.ms 200);
  (* fail the r0-r1 link at t=5s *)
  Sim.Engine.schedule_at engine ~time:(Sim.Time.s 5) (fun () ->
      match G.link_via g r.(0) (fst l01) with
      | Some l -> W.fail_link world l
      | None -> Alcotest.fail "link gone early");
  Sim.Engine.run ~until:(Sim.Time.s 21) engine;
  (* sent every 100ms for ~20s = ~198; must have lost only a handful
     during reconvergence (hello dead interval = 3s) *)
  let received = Ipbase.Host.received host2 in
  check_bool "most delivered" true (received > 150);
  check_bool "some lost during reconvergence" true (received < 198)

let () =
  Alcotest.run "ipbase"
    [
      ( "checksum",
        [
          Alcotest.test_case "known vector" `Quick checksum_known_vector;
          Alcotest.test_case "odd length" `Quick checksum_odd_length;
          Alcotest.test_case "self validates" `Quick checksum_self_validates;
          Alcotest.test_case "incremental matches" `Quick checksum_incremental_matches;
        ] );
      ( "header",
        [
          Alcotest.test_case "roundtrip" `Quick header_roundtrip;
          Alcotest.test_case "addressing" `Quick header_addressing;
          Alcotest.test_case "ttl decrement" `Quick header_ttl_decrement_keeps_checksum;
          Alcotest.test_case "corruption detected" `Quick header_corruption_detected;
        ] );
      ( "fragmentation",
        [
          Alcotest.test_case "split and reassemble" `Quick frag_splits_and_reassembles;
          Alcotest.test_case "out of order" `Quick frag_out_of_order_reassembly;
          Alcotest.test_case "respects DF" `Quick frag_respects_df;
          Alcotest.test_case "timeout all-or-nothing" `Quick frag_timeout_is_all_or_nothing;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "static routing" `Quick static_end_to_end;
          Alcotest.test_case "ttl expiry" `Quick ttl_expiry_drops;
          Alcotest.test_case "router fragments" `Quick router_fragments_mid_path;
          Alcotest.test_case "corrupt header dropped" `Quick corrupted_header_dropped;
          Alcotest.test_case "linkstate converges" `Quick linkstate_converges_and_delivers;
          Alcotest.test_case "linkstate reconverges after failure" `Slow
            linkstate_reconverges_after_failure;
        ] );
      ("properties", List.map Seeded.to_alcotest [ qcheck_frag_roundtrip ]);
    ]
