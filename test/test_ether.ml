(* Tests for Ethernet addressing and framing. *)

let check_string = Alcotest.(check string)
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let addr_string_roundtrip () =
  let a = Ether.Addr.of_string "02:00:00:00:12:34" in
  check_string "to_string" "02:00:00:00:12:34" (Ether.Addr.to_string a);
  check_bool "equal via int64" true
    (Ether.Addr.equal a (Ether.Addr.of_int64 0x020000001234L))

let addr_rejects_malformed () =
  List.iter
    (fun s ->
      Alcotest.check_raises ("reject " ^ s) (Invalid_argument "Addr.of_string")
        (fun () -> ignore (Ether.Addr.of_string s)))
    [ "00:11:22:33:44"; "gg:00:00:00:00:00"; "001:1:2:3:4:5"; "" ]

let addr_broadcast_multicast () =
  check_bool "broadcast" true (Ether.Addr.is_broadcast Ether.Addr.broadcast);
  check_bool "broadcast is multicast" true
    (Ether.Addr.is_multicast Ether.Addr.broadcast);
  check_bool "unicast" false
    (Ether.Addr.is_multicast (Ether.Addr.of_string "02:00:00:00:00:01"));
  check_bool "multicast bit" true
    (Ether.Addr.is_multicast (Ether.Addr.of_string "01:00:5e:00:00:01"))

let addr_wire_roundtrip () =
  let a = Ether.Addr.of_string "aa:bb:cc:dd:ee:ff" in
  let w = Wire.Buf.create_writer 6 in
  Ether.Addr.write w a;
  check_int "6 bytes" 6 (Wire.Buf.writer_length w);
  let r = Wire.Buf.reader_of_bytes (Wire.Buf.contents w) in
  check_bool "roundtrip" true (Ether.Addr.equal a (Ether.Addr.read r))

let addr_of_host_id () =
  let a = Ether.Addr.of_host_id 7 in
  check_bool "locally administered" true
    (String.sub (Ether.Addr.to_string a) 0 2 = "02");
  check_bool "unique" false (Ether.Addr.equal a (Ether.Addr.of_host_id 8))

let frame_roundtrip () =
  let h =
    {
      Ether.Frame.dst = Ether.Addr.of_host_id 1;
      src = Ether.Addr.of_host_id 2;
      ethertype = Ether.Frame.ethertype_sirpent;
    }
  in
  let payload = Bytes.of_string "payload!" in
  let frame = Ether.Frame.encode h payload in
  check_int "size" (Ether.Frame.header_size + 8) (Bytes.length frame);
  let h', payload' = Ether.Frame.decode frame in
  check_bool "dst" true (Ether.Addr.equal h.Ether.Frame.dst h'.Ether.Frame.dst);
  check_bool "src" true (Ether.Addr.equal h.Ether.Frame.src h'.Ether.Frame.src);
  check_int "ethertype" h.Ether.Frame.ethertype h'.Ether.Frame.ethertype;
  check_string "payload" "payload!" (Bytes.to_string payload')

let frame_swap () =
  let h =
    {
      Ether.Frame.dst = Ether.Addr.of_host_id 1;
      src = Ether.Addr.of_host_id 2;
      ethertype = Ether.Frame.ethertype_ip;
    }
  in
  let s = Ether.Frame.swap h in
  check_bool "dst<->src" true
    (Ether.Addr.equal s.Ether.Frame.dst h.Ether.Frame.src
    && Ether.Addr.equal s.Ether.Frame.src h.Ether.Frame.dst);
  check_int "type kept" h.Ether.Frame.ethertype s.Ether.Frame.ethertype;
  (* double swap is identity *)
  check_bool "involution" true (Ether.Frame.swap s = h)

let frame_short_rejected () =
  Alcotest.check_raises "underflow" Wire.Buf.Underflow (fun () ->
      ignore (Ether.Frame.decode (Bytes.create 10)))

let ethertypes_distinct () =
  check_bool "sirpent <> ip" true
    (Ether.Frame.ethertype_sirpent <> Ether.Frame.ethertype_ip);
  check_bool "sirpent <> cvc" true
    (Ether.Frame.ethertype_sirpent <> Ether.Frame.ethertype_cvc)

let qcheck_addr_roundtrip =
  QCheck.Test.make ~name:"addr int64 roundtrip (48 bits)" ~count:200
    QCheck.(int_range 0 0xFFFFFF)
    (fun n ->
      let v = Int64.of_int n in
      Int64.equal (Ether.Addr.to_int64 (Ether.Addr.of_int64 v)) v)

let qcheck_frame_roundtrip =
  QCheck.Test.make ~name:"frame roundtrip any payload" ~count:100
    QCheck.(string_of_size Gen.(0 -- 1500))
    (fun s ->
      let h =
        {
          Ether.Frame.dst = Ether.Addr.of_host_id 3;
          src = Ether.Addr.of_host_id 4;
          ethertype = 0x0800;
        }
      in
      let _, payload = Ether.Frame.decode (Ether.Frame.encode h (Bytes.of_string s)) in
      Bytes.to_string payload = s)

let () =
  Alcotest.run "ether"
    [
      ( "addr",
        [
          Alcotest.test_case "string roundtrip" `Quick addr_string_roundtrip;
          Alcotest.test_case "rejects malformed" `Quick addr_rejects_malformed;
          Alcotest.test_case "broadcast/multicast" `Quick addr_broadcast_multicast;
          Alcotest.test_case "wire roundtrip" `Quick addr_wire_roundtrip;
          Alcotest.test_case "host ids" `Quick addr_of_host_id;
        ] );
      ( "frame",
        [
          Alcotest.test_case "roundtrip" `Quick frame_roundtrip;
          Alcotest.test_case "swap" `Quick frame_swap;
          Alcotest.test_case "short rejected" `Quick frame_short_rejected;
          Alcotest.test_case "ethertypes distinct" `Quick ethertypes_distinct;
        ] );
      ( "properties",
        List.map Seeded.to_alcotest
          [ qcheck_addr_roundtrip; qcheck_frame_roundtrip ] );
    ]
