(* Tests for the VIPER wire formats: Figure 1 segment layout (golden
   bytes), trailer mechanics, whole-packet operations and the return-route
   reversal of §2. *)

module Seg = Viper.Segment
module Pkt = Viper.Packet

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* --- Figure 1 golden bytes --- *)

let golden_minimal_segment () =
  (* port 5, no flags, priority 0, no token, no info: exactly the 32-bit
     minimum segment of §5. Field order per Figure 1:
     PortInfoLength, PortTokenLength, Port, Flags|Priority. *)
  let seg = Seg.make ~port:5 () in
  check_string "wire bytes" "00000500" (Wire.Hex.of_bytes (Seg.encode seg));
  check_int "minimum size" 4 (Seg.encoded_size seg)

let golden_flags_priority () =
  (* VNT flag (bit 3 of the flags nibble) and priority 7 *)
  let seg =
    Seg.make ~flags:{ Seg.vnt = true; dib = false; rpf = false } ~priority:7
      ~port:0x12 ()
  in
  check_string "wire bytes" "00001287" (Wire.Hex.of_bytes (Seg.encode seg));
  let seg =
    Seg.make ~flags:{ Seg.vnt = false; dib = true; rpf = true } ~priority:0xF
      ~port:1 ()
  in
  check_string "DIB|RPF, prio F" "0000016f" (Wire.Hex.of_bytes (Seg.encode seg))

let golden_with_fields () =
  let seg =
    Seg.make ~token:(Bytes.of_string "\xAA\xBB") ~info:(Bytes.of_string "\x01")
      ~port:9 ()
  in
  (* infoLen=01 tokenLen=02 port=09 flags/prio=00 token=aabb info=01 *)
  check_string "wire bytes" "01020900aabb01" (Wire.Hex.of_bytes (Seg.encode seg))

let roundtrip_basic () =
  let seg =
    Seg.make
      ~flags:{ Seg.vnt = true; dib = true; rpf = false }
      ~priority:5
      ~token:(Bytes.of_string "token-bytes")
      ~info:(Bytes.of_string "network-info") ~port:200 ()
  in
  check_bool "roundtrip" true (Seg.equal seg (Seg.decode (Seg.encode seg)))

let extended_length_fields () =
  (* A field of >= 255 bytes uses the 255 marker + 32-bit length. *)
  let big = Bytes.make 300 'T' in
  let seg = Seg.make ~token:big ~port:1 () in
  let encoded = Seg.encode seg in
  check_int "length byte is 255" 255 (Char.code (Bytes.get encoded 1));
  check_int "wire size" (4 + 4 + 300) (Bytes.length encoded);
  let seg' = Seg.decode encoded in
  check_bool "roundtrip" true (Seg.equal seg seg')

let exactly_254_not_extended () =
  let b = Bytes.make 254 'x' in
  let seg = Seg.make ~info:b ~port:1 () in
  check_int "no extension" (4 + 254) (Bytes.length (Seg.encode seg))

let peek_port_fast_path () =
  let seg = Seg.make ~token:(Bytes.make 50 'k') ~port:123 () in
  check_int "peek" 123 (Seg.peek_port (Seg.encode seg) ~off:0)

let segment_rejects_invalid () =
  Alcotest.check_raises "port range" (Invalid_argument "Segment.make: port")
    (fun () -> ignore (Seg.make ~port:256 ()));
  Alcotest.check_raises "priority range" (Invalid_argument "Segment.make: priority")
    (fun () -> ignore (Seg.make ~priority:16 ~port:1 ()))

let truncated_segment_underflows () =
  let seg = Seg.make ~token:(Bytes.make 10 'k') ~port:1 () in
  let whole = Seg.encode seg in
  let cut = Bytes.sub whole 0 (Bytes.length whole - 3) in
  Alcotest.check_raises "underflow" Wire.Buf.Underflow (fun () ->
      ignore (Seg.decode cut))

(* --- trailer --- *)

let trailer_empty () =
  let packet = Bytes.cat (Bytes.of_string "data") Viper.Trailer.empty in
  check_int "size" 3 (Viper.Trailer.size packet);
  Alcotest.(check int) "no entries" 0 (List.length (Viper.Trailer.entries packet))

let trailer_append_order () =
  let base = Bytes.cat (Bytes.of_string "data") Viper.Trailer.empty in
  let s1 = Seg.make ~port:1 () and s2 = Seg.make ~port:2 () in
  let p = Viper.Trailer.append_hop (Viper.Trailer.append_hop base s1) s2 in
  match Viper.Trailer.entries p with
  | [ Viper.Trailer.Hop a; Viper.Trailer.Hop b ] ->
    check_int "first appended first" 1 a.Seg.port;
    check_int "second second" 2 b.Seg.port
  | _ -> Alcotest.fail "expected two hops"

let trailer_truncation_marker () =
  let base = Bytes.cat (Bytes.of_string "data") Viper.Trailer.empty in
  let p = Viper.Trailer.append_truncation_marker base in
  (match Viper.Trailer.entries p with
  | [ Viper.Trailer.Truncated ] -> ()
  | _ -> Alcotest.fail "expected marker");
  (* markers and hops mix *)
  let p2 = Viper.Trailer.append_hop p (Seg.make ~port:7 ()) in
  match Viper.Trailer.entries p2 with
  | [ Viper.Trailer.Truncated; Viper.Trailer.Hop h ] -> check_int "hop" 7 h.Seg.port
  | _ -> Alcotest.fail "expected marker then hop"

(* --- packet --- *)

let route3 =
  [ Seg.make ~port:3 (); Seg.make ~port:8 (); Seg.make ~port:Seg.local_port () ]

let build_normalizes_vnt () =
  let p = Pkt.build ~route:route3 ~data:(Bytes.of_string "hello") in
  let decoded = Pkt.decode p in
  match decoded.Pkt.route with
  | [ a; b; c ] ->
    check_bool "first VNT" true a.Seg.flags.Seg.vnt;
    check_bool "middle VNT" true b.Seg.flags.Seg.vnt;
    check_bool "last not VNT" false c.Seg.flags.Seg.vnt;
    check_string "data" "hello" (Bytes.to_string decoded.Pkt.data)
  | _ -> Alcotest.fail "expected 3 segments"

let build_rejects_empty_and_long () =
  Alcotest.check_raises "empty" (Invalid_argument "Packet.build: empty route")
    (fun () -> ignore (Pkt.build ~route:[] ~data:Bytes.empty));
  let long = List.init 49 (fun i -> Seg.make ~port:(1 + (i mod 200)) ()) in
  Alcotest.check_raises "too long" (Invalid_argument "Packet.build: route too long")
    (fun () -> ignore (Pkt.build ~route:long ~data:Bytes.empty))

let strip_and_forward () =
  let p = Pkt.build ~route:route3 ~data:(Bytes.of_string "payload") in
  let seg, rest = Pkt.strip_leading p in
  check_int "stripped port" 3 seg.Seg.port;
  check_int "smaller" (Bytes.length p - Seg.encoded_size seg) (Bytes.length rest);
  (* forward: strip + append return hop *)
  let return_seg = Seg.make ~flags:{ Seg.no_flags with Seg.rpf = true } ~port:1 () in
  let stripped, forwarded = Pkt.forward p ~return_seg in
  check_int "same stripped" 3 stripped.Seg.port;
  let decoded = Pkt.decode forwarded in
  check_int "route shortened" 2 (List.length decoded.Pkt.route);
  (match decoded.Pkt.trailer with
  | [ Viper.Trailer.Hop h ] ->
    check_int "return port" 1 h.Seg.port;
    check_bool "rpf" true h.Seg.flags.Seg.rpf
  | _ -> Alcotest.fail "expected one trailer hop");
  check_string "data intact" "payload" (Bytes.to_string decoded.Pkt.data)

let full_path_reversal () =
  (* Simulate 3 routers by hand and reverse at the receiver. *)
  let p = ref (Pkt.build ~route:route3 ~data:(Bytes.of_string "x")) in
  let in_ports = [ 11; 12 ] in
  List.iter
    (fun in_port ->
      let _, fwd =
        Pkt.forward !p
          ~return_seg:(Seg.make ~flags:{ Seg.no_flags with Seg.rpf = true } ~port:in_port ())
      in
      p := fwd)
    in_ports;
  let final = Pkt.decode !p in
  check_int "only local segment left" 1 (List.length final.Pkt.route);
  let back = Pkt.return_route final in
  (* reverse order: last hop's return port first *)
  (match back with
  | [ a; b ] ->
    check_int "first back-hop" 12 a.Seg.port;
    check_int "second back-hop" 11 b.Seg.port;
    check_bool "vnt normalized" true a.Seg.flags.Seg.vnt;
    check_bool "last no vnt" false b.Seg.flags.Seg.vnt;
    check_bool "rpf set" true (a.Seg.flags.Seg.rpf && b.Seg.flags.Seg.rpf)
  | _ -> Alcotest.fail "expected 2 return hops");
  check_bool "not truncated" false (Pkt.truncated final)

let return_route_refuses_truncated () =
  let p = Pkt.build ~route:route3 ~data:(Bytes.make 100 'd') in
  let cut = Pkt.truncate_to p ~max:50 in
  let decoded = Pkt.decode cut in
  check_bool "truncated flag" true (Pkt.truncated decoded);
  Alcotest.check_raises "refuses" (Failure "Packet.return_route: packet was truncated")
    (fun () -> ignore (Pkt.return_route decoded))

let truncate_noop_when_fits () =
  let p = Pkt.build ~route:route3 ~data:(Bytes.of_string "ok") in
  check_bool "unchanged" true (Bytes.equal p (Pkt.truncate_to p ~max:10_000))

let encode_decode_identity () =
  let p =
    Pkt.build
      ~route:[ Seg.make ~port:9 ~token:(Bytes.make 5 't') (); Seg.make ~port:0 () ]
      ~data:(Bytes.of_string "abc")
  in
  let _, fwd =
    Pkt.forward p ~return_seg:(Seg.make ~port:2 ~info:(Bytes.make 14 'e') ())
  in
  let decoded = Pkt.decode fwd in
  check_bool "encode . decode = id" true (Bytes.equal (Pkt.encode decoded) fwd)

let peek_ports_pair () =
  let p = Pkt.build ~route:route3 ~data:Bytes.empty in
  (match Pkt.peek_ports p with
  | 3, Some 8 -> ()
  | _ -> Alcotest.fail "expected (3, Some 8)");
  let single = Pkt.build ~route:[ Seg.make ~port:0 () ] ~data:Bytes.empty in
  match Pkt.peek_ports single with
  | 0, None -> ()
  | _ -> Alcotest.fail "expected (0, None)"

let header_bytes_measures_first () =
  let p =
    Pkt.build
      ~route:[ Seg.make ~port:3 ~token:(Bytes.make 32 'k') (); Seg.make ~port:0 () ]
      ~data:Bytes.empty
  in
  check_int "first segment size" (4 + 32) (Pkt.header_bytes p)

let overhead_sums () =
  check_int "3 minimal segments" 12 (Pkt.total_header_overhead ~route:route3)

(* --- damaged trailers (hardened path): never a bogus route --- *)

(* A packet that has crossed two routers, so its trailer carries a real
   two-hop return route. *)
let forwarded_packet () =
  let p = ref (Pkt.build ~route:route3 ~data:(Bytes.of_string "payload!")) in
  List.iter
    (fun ip ->
      let _, fwd =
        Pkt.forward !p
          ~return_seg:(Seg.make ~flags:{ Seg.no_flags with Seg.rpf = true } ~port:ip ())
      in
      p := fwd)
    [ 11; 12 ];
  !p

let reference_return_route whole =
  match Pkt.parse whole with
  | Ok t -> (
    match Pkt.return_route_r t with
    | Ok r -> r
    | Error _ -> Alcotest.fail "undamaged packet must reverse")
  | Error _ -> Alcotest.fail "undamaged packet must parse"

(* Damage must surface as a parse error (or, at worst, the unchanged
   route) — never as a different-looking valid return route, which would
   silently misdirect the reply. *)
let assert_no_bogus_route ~what reference damaged =
  match Pkt.parse damaged with
  | Error _ -> ()
  | Ok t -> (
    match Pkt.return_route_r t with
    | Error _ -> ()
    | Ok r ->
      if not (List.equal Seg.equal r reference) then
        Alcotest.failf "%s yielded a bogus return route" what)

let every_trailer_bit_flip_detected () =
  (* Exhaustive and deterministic: flip each single bit of the trailer
     region in turn. The per-entry XOR checksum makes single-bit damage
     inside an entry a guaranteed parse error; flips in the length/total
     framing must at minimum never produce a different valid route. *)
  let whole = forwarded_packet () in
  let reference = reference_return_route whole in
  let tr = Viper.Trailer.size whole in
  let off = Bytes.length whole - tr in
  for bit = 0 to (tr * 8) - 1 do
    let damaged = Bytes.copy whole in
    let byte = off + (bit / 8) and mask = 1 lsl (bit mod 8) in
    Bytes.set damaged byte (Char.chr (Char.code (Bytes.get damaged byte) lxor mask));
    assert_no_bogus_route ~what:(Printf.sprintf "trailer bit flip %d" bit)
      reference damaged
  done

let every_truncation_detected () =
  (* Cut the packet at every possible length: no prefix may parse into a
     different valid return route. *)
  let whole = forwarded_packet () in
  let reference = reference_return_route whole in
  for cut = 0 to Bytes.length whole - 1 do
    assert_no_bogus_route ~what:(Printf.sprintf "truncation to %d bytes" cut)
      reference (Bytes.sub whole 0 cut)
  done

let parse_reports_errors_not_exceptions () =
  let whole = forwarded_packet () in
  (* total field pointing past the packet start *)
  let damaged = Bytes.copy whole in
  Bytes.set damaged (Bytes.length damaged - 1) '\xff';
  Bytes.set damaged (Bytes.length damaged - 2) '\x7f';
  (match Pkt.parse damaged with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "oversized trailer total must not parse");
  match Viper.Trailer.parse_entries damaged with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "parse_entries must reject oversized total"

(* --- multicast codec --- *)

let multicast_roundtrip () =
  let branches =
    [
      [ Seg.make ~port:1 (); Seg.make ~port:0 () ];
      [ Seg.make ~port:2 (); Seg.make ~port:5 (); Seg.make ~port:0 () ];
    ]
  in
  let decoded = Viper.Multicast.decode_branches (Viper.Multicast.encode_branches branches) in
  check_int "two branches" 2 (List.length decoded);
  check_int "branch1 len" 2 (List.length (List.nth decoded 0));
  check_int "branch2 len" 3 (List.length (List.nth decoded 1));
  let b2 = List.nth decoded 1 in
  check_bool "vnt normalized inside branch" true (List.nth b2 0).Seg.flags.Seg.vnt;
  check_bool "last branch seg no vnt" false (List.nth b2 2).Seg.flags.Seg.vnt

let multicast_rejects_bad () =
  Alcotest.check_raises "no branches" (Invalid_argument "Multicast: branch count")
    (fun () -> ignore (Viper.Multicast.encode_branches []));
  Alcotest.check_raises "empty branch" (Invalid_argument "Multicast: empty branch")
    (fun () -> ignore (Viper.Multicast.encode_branches [ [] ]))

let multicast_truncated_list () =
  let enc =
    Viper.Multicast.encode_branches
      [
        [ Seg.make ~port:1 (); Seg.make ~port:0 () ];
        [ Seg.make ~port:2 (); Seg.make ~port:0 () ];
      ]
  in
  (* cut mid-branch: the decoder must underflow, not return a partial list *)
  (match Viper.Multicast.decode_branches (Bytes.sub enc 0 (Bytes.length enc - 3)) with
  | exception Wire.Buf.Underflow -> ()
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "truncated branch list must not decode");
  (* bytes after the last declared branch are equally malformed *)
  Alcotest.check_raises "trailing bytes" (Invalid_argument "Multicast: trailing bytes")
    (fun () ->
      ignore (Viper.Multicast.decode_branches (Bytes.cat enc (Bytes.make 2 '\x00'))))

let multicast_zero_targets () =
  (* a count byte of zero is not a legal tree on the wire either *)
  Alcotest.check_raises "decode zero" (Invalid_argument "Multicast: branch count")
    (fun () -> ignore (Viper.Multicast.decode_branches (Bytes.make 1 '\x00')))

let multicast_max_fanout () =
  let branch i = [ Seg.make ~port:(1 + (i mod 200)) (); Seg.make ~port:0 () ] in
  let at n = List.init n branch in
  let decoded = Viper.Multicast.decode_branches (Viper.Multicast.encode_branches (at 255)) in
  check_int "255 branches roundtrip" 255 (List.length decoded);
  Alcotest.check_raises "256 rejected" (Invalid_argument "Multicast: branch count")
    (fun () -> ignore (Viper.Multicast.encode_branches (at 256)))

(* --- in-header branch routes --- *)

let branch_segment_roundtrip () =
  let alt =
    Viper.Packet.encode_route_segments [ Seg.make ~port:7 (); Seg.make ~port:0 () ]
  in
  let seg = Seg.make ~port:3 ~branch:alt () in
  let seg' = Seg.decode (Seg.encode seg) in
  check_bool "roundtrip equal" true (Seg.equal seg seg');
  check_bool "branch bytes preserved" true (Bytes.equal alt seg'.Seg.branch);
  check_int "size matches wire" (Seg.encoded_size seg) (Bytes.length (Seg.encode seg));
  (* the branch route itself parses back *)
  match Viper.Packet.parse_route_segments seg'.Seg.branch with
  | Ok [ a; b ] ->
    check_int "alt hop" 7 a.Seg.port;
    check_int "alt local" 0 b.Seg.port
  | _ -> Alcotest.fail "embedded branch must parse as two segments"

let branchless_byte_identity () =
  (* the brf flag is derived at write time: a segment without a branch must
     encode byte-identically to the pre-branch wire format *)
  let seg = Seg.make ~flags:{ Seg.no_flags with Seg.vnt = true } ~port:9 () in
  let enc = Seg.encode seg in
  check_int "4-byte minimal prefix" 4 (Bytes.length enc);
  check_int "flags nibble has no brf bit" 0 (Char.code (Bytes.get enc 3) land 0x10)

let trailer_branch_marker () =
  let route = [ Seg.make ~port:5 (); Seg.make ~port:0 () ] in
  let p = Pkt.build ~route ~data:(Bytes.of_string "hi") in
  let seg, p = Pkt.forward p ~return_seg:(Seg.make ~flags:{ Seg.no_flags with Seg.rpf = true } ~port:2 ()) in
  check_int "stripped first hop" 5 seg.Seg.port;
  let p = Viper.Trailer.append_branch_marker p in
  let d = Pkt.decode p in
  check_bool "took_branch" true (Pkt.took_branch d);
  check_bool "not truncated" false (Pkt.truncated d);
  (* the marker annotates the trailer without poisoning the return route *)
  check_int "return route still one hop" 1 (List.length (Pkt.return_route d));
  match Viper.Trailer.entries p with
  | [ Viper.Trailer.Hop _; Viper.Trailer.Branch ] -> ()
  | _ -> Alcotest.fail "trailer must read [Hop; Branch]"

let substitute_route_swaps_chain () =
  let route = [ Seg.make ~port:1 (); Seg.make ~port:2 (); Seg.make ~port:0 () ] in
  let p = Pkt.build ~route ~data:(Bytes.of_string "payload") in
  let alt =
    Pkt.encode_route_segments [ Seg.make ~port:8 (); Seg.make ~port:0 () ]
  in
  let d = Pkt.decode (Pkt.substitute_route p ~route:alt) in
  check_int "route replaced" 2 (List.length d.Pkt.route);
  check_int "new first hop" 8 (List.hd d.Pkt.route).Seg.port;
  check_string "data untouched" "payload" (Bytes.to_string d.Pkt.data)

let tree_segment_port () =
  let seg =
    Viper.Multicast.tree_segment
      ~branches:[ [ Seg.make ~port:1 () ] ] ()
  in
  check_int "reserved port" Viper.Multicast.tree_port seg.Seg.port;
  check_bool "has info" true (Bytes.length seg.Seg.info > 0)

(* --- properties --- *)

let segment_gen =
  QCheck.Gen.(
    let* port = int_range 0 255 in
    let* priority = int_range 0 15 in
    let* vnt = bool in
    let* dib = bool in
    let* rpf = bool in
    let* token = string_size (int_range 0 300) in
    let* info = string_size (int_range 0 300) in
    let* branch = string_size (int_range 0 100) in
    return
      (Seg.make ~flags:{ Seg.vnt; dib; rpf } ~priority
         ~token:(Bytes.of_string token) ~info:(Bytes.of_string info)
         ~branch:(Bytes.of_string branch) ~port ()))

let qcheck_segment_roundtrip =
  QCheck.Test.make ~name:"segment roundtrip (any fields)" ~count:300
    (QCheck.make segment_gen)
    (fun seg -> Seg.equal seg (Seg.decode (Seg.encode seg)))

let qcheck_size_matches =
  QCheck.Test.make ~name:"encoded_size matches wire length" ~count:300
    (QCheck.make segment_gen)
    (fun seg -> Seg.encoded_size seg = Bytes.length (Seg.encode seg))

let qcheck_packet_roundtrip =
  QCheck.Test.make ~name:"packet build/decode preserves data" ~count:200
    QCheck.(pair (int_range 1 10) (string_of_size Gen.(0 -- 1024)))
    (fun (hops, data) ->
      let route =
        List.init hops (fun i ->
            Seg.make ~port:(if i = hops - 1 then 0 else 1 + (i mod 200)) ())
      in
      let p = Pkt.decode (Pkt.build ~route ~data:(Bytes.of_string data)) in
      Bytes.to_string p.Pkt.data = data && List.length p.Pkt.route = hops)

(* the fused failover (one sized allocation) must emit exactly the bytes
   of the two-copy composition it replaces *)
let qcheck_fused_branch_identical =
  QCheck.Test.make ~name:"substitute_route_branch = marker . substitute" ~count:200
    QCheck.(
      triple (int_range 2 6) (int_range 1 6) (string_of_size Gen.(0 -- 256)))
    (fun (hops, alt_hops, data) ->
      (* clamp: qcheck shrinking may step outside the generator's range *)
      let hops = max 2 hops and alt_hops = max 1 alt_hops in
      let route =
        List.init hops (fun i ->
            Seg.make ~port:(if i = hops - 1 then 0 else 1 + i) ())
      in
      let p = ref (Pkt.build ~route ~data:(Bytes.of_string data)) in
      (* take one real hop so the trailer is non-trivial *)
      let _, fwd = Pkt.forward !p ~return_seg:(Seg.make ~port:77 ()) in
      p := fwd;
      let alt =
        Pkt.encode_route_segments
          (List.init alt_hops (fun i ->
               Seg.make ~port:(if i = alt_hops - 1 then 0 else 100 + i) ()))
      in
      let composed =
        Viper.Trailer.append_branch_marker (Pkt.substitute_route !p ~route:alt)
      in
      Bytes.equal composed (Pkt.substitute_route_branch !p ~route:alt))

(* the fused per-hop strip + append (one sized allocation) must emit
   exactly the bytes of the two-copy composition it replaces *)
let qcheck_fused_hop_identical =
  QCheck.Test.make ~name:"fused append_hop_sub byte-identical" ~count:200
    QCheck.(pair (int_range 2 8) (string_of_size Gen.(0 -- 256)))
    (fun (hops, data) ->
      let route =
        List.init hops (fun i ->
            Seg.make ~port:(if i = hops - 1 then 0 else 1 + i) ())
      in
      let p = Pkt.build ~route ~data:(Bytes.of_string data) in
      let return_seg = Seg.make ~token:(Bytes.of_string "tk") ~port:9 () in
      let _, pos = Result.get_ok (Pkt.parse_leading_pos p) in
      let stripped = Bytes.sub p pos (Bytes.length p - pos) in
      Bytes.equal
        (Viper.Trailer.append_hop stripped return_seg)
        (Viper.Trailer.append_hop_sub p ~pos return_seg))

let qcheck_reversal_is_reverse =
  QCheck.Test.make ~name:"trailer reversal yields reversed in-ports" ~count:100
    QCheck.(list_of_size Gen.(1 -- 10) (int_range 1 239))
    (fun in_ports ->
      let route =
        List.init
          (List.length in_ports + 1)
          (fun i ->
            Seg.make ~port:(if i = List.length in_ports then 0 else 1 + i) ())
      in
      let p = ref (Pkt.build ~route ~data:Bytes.empty) in
      List.iter
        (fun ip ->
          let _, fwd =
            Pkt.forward !p
              ~return_seg:
                (Seg.make ~flags:{ Seg.no_flags with Seg.rpf = true } ~port:ip ())
          in
          p := fwd)
        in_ports;
      let back = Pkt.return_route (Pkt.decode !p) in
      List.map (fun s -> s.Seg.port) back = List.rev in_ports)

let () =
  Alcotest.run "viper"
    [
      ( "segment (Figure 1)",
        [
          Alcotest.test_case "golden minimal" `Quick golden_minimal_segment;
          Alcotest.test_case "golden flags/priority" `Quick golden_flags_priority;
          Alcotest.test_case "golden with fields" `Quick golden_with_fields;
          Alcotest.test_case "roundtrip" `Quick roundtrip_basic;
          Alcotest.test_case "extended lengths" `Quick extended_length_fields;
          Alcotest.test_case "254 not extended" `Quick exactly_254_not_extended;
          Alcotest.test_case "peek port" `Quick peek_port_fast_path;
          Alcotest.test_case "rejects invalid" `Quick segment_rejects_invalid;
          Alcotest.test_case "truncated underflows" `Quick truncated_segment_underflows;
        ] );
      ( "trailer",
        [
          Alcotest.test_case "empty" `Quick trailer_empty;
          Alcotest.test_case "append order" `Quick trailer_append_order;
          Alcotest.test_case "truncation marker" `Quick trailer_truncation_marker;
          Alcotest.test_case "every bit flip detected" `Quick
            every_trailer_bit_flip_detected;
          Alcotest.test_case "every truncation detected" `Quick
            every_truncation_detected;
          Alcotest.test_case "errors not exceptions" `Quick
            parse_reports_errors_not_exceptions;
        ] );
      ( "packet",
        [
          Alcotest.test_case "build normalizes VNT" `Quick build_normalizes_vnt;
          Alcotest.test_case "build rejects bad routes" `Quick build_rejects_empty_and_long;
          Alcotest.test_case "strip and forward" `Quick strip_and_forward;
          Alcotest.test_case "full path reversal" `Quick full_path_reversal;
          Alcotest.test_case "truncated refuses reversal" `Quick return_route_refuses_truncated;
          Alcotest.test_case "truncate noop when fits" `Quick truncate_noop_when_fits;
          Alcotest.test_case "encode/decode identity" `Quick encode_decode_identity;
          Alcotest.test_case "peek ports" `Quick peek_ports_pair;
          Alcotest.test_case "header bytes" `Quick header_bytes_measures_first;
          Alcotest.test_case "overhead sums" `Quick overhead_sums;
        ] );
      ( "multicast",
        [
          Alcotest.test_case "roundtrip" `Quick multicast_roundtrip;
          Alcotest.test_case "rejects bad" `Quick multicast_rejects_bad;
          Alcotest.test_case "truncated list" `Quick multicast_truncated_list;
          Alcotest.test_case "zero targets" `Quick multicast_zero_targets;
          Alcotest.test_case "max fan-out" `Quick multicast_max_fanout;
          Alcotest.test_case "tree segment" `Quick tree_segment_port;
        ] );
      ( "branch routes",
        [
          Alcotest.test_case "segment roundtrip" `Quick branch_segment_roundtrip;
          Alcotest.test_case "branchless byte identity" `Quick branchless_byte_identity;
          Alcotest.test_case "trailer marker" `Quick trailer_branch_marker;
          Alcotest.test_case "substitute route" `Quick substitute_route_swaps_chain;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            qcheck_segment_roundtrip;
            qcheck_size_matches;
            qcheck_packet_roundtrip;
            qcheck_fused_branch_identical;
            qcheck_fused_hop_identical;
            qcheck_reversal_is_reverse;
          ] );
    ]
