(* Tests for the VIPER wire formats: Figure 1 segment layout (golden
   bytes), trailer mechanics, whole-packet operations and the return-route
   reversal of §2. *)

module Seg = Viper.Segment
module Pkt = Viper.Packet

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* The trailer readers over a whole packet *)
let trailer_size p = Viper.Trailer.size_in p ~off:0 ~len:(Bytes.length p)
let entries p = Viper.Trailer.entries_in p ~off:0 ~len:(Bytes.length p)

(* The packet's arrival check, which must pass *)
let parsed p =
  match Pkt.parse p with Ok t -> t | Error _ -> Alcotest.fail "packet must parse"

(* [b] as the window of a larger buffer, junk on both sides *)
let embed b =
  let w = Bytes.make (Bytes.length b + 11) '\xA5' in
  Bytes.blit b 0 w 5 (Bytes.length b);
  (w, 5, Bytes.length b)

(* [p] with [marker] appended to its trailer *)
let mark marker p =
  let n = Bytes.length p in
  let out = Bytes.create (n + 2) in
  ignore (Viper.Trailer.append_marker p ~off:0 ~len:n marker out ~at:0);
  out

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

(* --- the reference codec ---

   Reference code only: the record-rebuilding, copying compositions the
   in-place codec replaced. The library must give the same bytes, the
   same values and the same errors. *)

module Ref = struct
  let normalize_vnt ?(last_vnt = false) route =
    let n = List.length route in
    List.mapi
      (fun i s ->
        { s with Seg.flags = { s.Seg.flags with Seg.vnt = i < n - 1 || last_vnt } })
      route

  let write_route ?last_vnt route =
    let w = Wire.Buf.create_writer 64 in
    List.iter (Seg.write w) (normalize_vnt ?last_vnt route);
    Wire.Buf.contents w

  (* [Host.send]'s old override: rebuild every record *)
  let stamp ~priority ~dib route =
    List.map
      (fun s -> { s with Seg.priority; Seg.flags = { s.Seg.flags with Seg.dib } })
      route

  let build ~route ~data =
    if route = [] then invalid_arg "Packet.build: empty route";
    if List.length route > Pkt.max_route_segments then
      invalid_arg "Packet.build: route too long";
    Bytes.concat Bytes.empty [ write_route route; data; Viper.Trailer.empty ]

  let wrap f x =
    match f x with
    | v -> Ok v
    | exception (Wire.Buf.Underflow | Wire.Buf.Overflow) -> Error Seg.Truncated
    | exception Invalid_argument m -> Error (Seg.Malformed m)
    | exception Failure m -> Error (Seg.Malformed m)

  let cksum b = Bytes.fold_left (fun acc c -> acc lxor Char.code c) 0x5A b

  let u16 packet off =
    if off < 0 || off + 2 > Bytes.length packet then
      invalid_arg "Trailer: malformed (short)";
    Bytes.get_uint16_be packet off

  let check_of_total total = 0x5A lxor (total lsr 8) lxor (total land 0xFF)

  (* the checked total of the trailer ending [packet] *)
  let total packet =
    let n = Bytes.length packet in
    let total = u16 packet (n - 2) in
    if n < 3 || Char.code (Bytes.get packet (n - 3)) <> check_of_total total then
      invalid_arg "Trailer: total checksum";
    total

  let terminator total =
    let t = Bytes.create 3 in
    Bytes.set t 0 (Char.chr (check_of_total total));
    Bytes.set_uint16_be t 1 total;
    t

  (* the trailer walk with a [Bytes.sub] copy per entry *)
  let entries packet =
    let stop = Bytes.length packet - 3 in
    let start = stop - total packet in
    if start < 0 then invalid_arg "Trailer: total exceeds packet";
    let rec walk pos acc =
      if pos = start then acc
      else
        let len = u16 packet (pos - 2) in
        if len = 0xFFFF then walk (pos - 2) (Viper.Trailer.Truncated :: acc)
        else if len = 0xFFFE then walk (pos - 2) (Viper.Trailer.Branch :: acc)
        else begin
          let seg_start = pos - 3 - len in
          if seg_start < start then invalid_arg "Trailer: entry exceeds trailer";
          if len < Seg.fixed_size then invalid_arg "Trailer: entry too small";
          let seg_bytes = Bytes.sub packet seg_start len in
          if Char.code (Bytes.get packet (pos - 3)) <> cksum seg_bytes then
            invalid_arg "Trailer: entry checksum";
          walk seg_start (Viper.Trailer.Hop (Seg.decode seg_bytes) :: acc)
        end
    in
    walk stop []

  (* [packet] with the entry bytes [extra] appended to its trailer: the
     body copied, then [extra], then a new terminator *)
  let with_appended packet extra =
    let total = total packet + Bytes.length extra in
    if total > 0xFFFF then invalid_arg "Trailer: overflow";
    let body = Bytes.sub packet 0 (Bytes.length packet - 3) in
    Bytes.concat Bytes.empty [ body; extra; terminator total ]

  (* a hop entry of [raw] segment bytes *)
  let hop_entry raw =
    let rl = Bytes.length raw in
    let e = Bytes.create (rl + 3) in
    Bytes.blit raw 0 e 0 rl;
    Bytes.set e rl (Char.chr (cksum raw));
    Bytes.set_uint16_be e (rl + 1) rl;
    e

  let append_hop packet seg =
    let raw = Seg.encode seg in
    if Bytes.length raw > 0xFFFD then invalid_arg "Trailer.append_hop: segment too large";
    with_appended packet (hop_entry raw)

  let append_marker packet entry =
    let code = Bytes.create 2 in
    Bytes.set_uint16_be code 0
      (match entry with
      | Viper.Trailer.Truncated -> 0xFFFF
      | Viper.Trailer.Branch -> 0xFFFE
      | Viper.Trailer.Hop _ -> invalid_arg "Ref.append_marker");
    with_appended packet code

  (* the route's records as they are, the data, the trailer's entries *)
  let encode (route, data, trailer) =
    let w = Wire.Buf.create_writer 256 in
    List.iter (Seg.write w) route;
    Wire.Buf.put_bytes w data;
    List.fold_left
      (fun p -> function
        | Viper.Trailer.Hop seg -> append_hop p seg
        | marker -> append_marker p marker)
      (Bytes.cat (Wire.Buf.contents w) Viper.Trailer.empty)
      trailer

  (* the first [max] bytes, an empty trailer, the truncation marker *)
  let truncate packet ~max =
    if Bytes.length packet <= max then packet
    else
      append_marker
        (Bytes.cat (Bytes.sub packet 0 max) Viper.Trailer.empty)
        Viper.Trailer.Truncated

  let read_route r =
    let rec go n acc =
      if n > Pkt.max_route_segments then invalid_arg "Packet: route too long";
      let seg = Seg.read r in
      if seg.Seg.flags.Seg.vnt then go (n + 1) (seg :: acc) else List.rev (seg :: acc)
    in
    go 1 []

  let decode bytes =
    let r = Wire.Buf.reader_of_bytes bytes in
    let route = read_route r in
    let rest_start = Wire.Buf.position r in
    let trailer_size = total bytes + 3 in
    if trailer_size > Bytes.length bytes then invalid_arg "Trailer: total exceeds packet";
    let data_len = Bytes.length bytes - rest_start - trailer_size in
    if data_len < 0 then invalid_arg "Packet.decode: overlapping trailer";
    let data = Wire.Buf.get_bytes r data_len in
    (route, data, entries bytes)

  (* both leading segments decoded in full, for one port *)
  let peek_ports bytes =
    let r = Wire.Buf.reader_of_bytes bytes in
    let s1 = Seg.read r in
    if s1.Seg.flags.Seg.vnt then (s1.Seg.port, Some (Seg.read r).Seg.port)
    else (s1.Seg.port, None)

  (* the router's old [next_port]: the next XSR lane, else the leading
     VIPER port, where anything raised means -1 *)
  let next_port bytes =
    if Viper.Xsr.is_xsr_in bytes ~off:0 ~len:(Bytes.length bytes) then
      Viper.Xsr.next_port bytes
    else match peek_ports bytes with first, _ -> first | exception _ -> -1

  let consumed b off =
    let r = Wire.Buf.reader_of_bytes ~off b in
    ignore (Seg.read r);
    Wire.Buf.position r

  (* The reply as a list composition: the trailer's hops, reversed with
     RPF set, then the local segment, built. A truncated trailer has no
     reply. Returns the packet and its route. *)
  let reply trailer ~priority ~data =
    if List.exists (fun e -> e = Viper.Trailer.Truncated) trailer then
      Error (Seg.Malformed "truncated")
    else
      let hops =
        List.filter_map
          (function
            | Viper.Trailer.Hop s ->
              Some { s with Seg.flags = { s.Seg.flags with Seg.rpf = true } }
            | Viper.Trailer.Truncated | Viper.Trailer.Branch -> None)
          trailer
      in
      let route = List.rev_append hops [ Seg.make ~priority ~port:Seg.local_port () ] in
      wrap (fun route -> (build ~route ~data, route)) route

  (* the reply's route without its local segment, VNT on all but the
     last hop *)
  let return_route trailer =
    Result.map
      (fun (_, route) -> normalize_vnt (List.filteri (fun i _ -> i < List.length route - 1) route))
      (reply trailer ~priority:Token.Priority.normal ~data:Bytes.empty)
end

(* --- trailer --- *)

let trailer_empty () =
  let packet = Bytes.cat (Bytes.of_string "data") Viper.Trailer.empty in
  check_int "size" 3 (trailer_size packet);
  Alcotest.(check int) "no entries" 0 (List.length (entries packet))

let trailer_append_order () =
  let base = Bytes.cat (Bytes.of_string "data") Viper.Trailer.empty in
  let s1 = Seg.make ~port:1 () and s2 = Seg.make ~port:2 () in
  let p = Viper.Trailer.append_hop (Viper.Trailer.append_hop base ~pos:0 s1) ~pos:0 s2 in
  match entries p with
  | [ Viper.Trailer.Hop a; Viper.Trailer.Hop b ] ->
    check_int "first appended first" 1 a.Seg.port;
    check_int "second second" 2 b.Seg.port
  | _ -> Alcotest.fail "expected two hops"

let trailer_truncation_marker () =
  let base = Bytes.cat (Bytes.of_string "data") Viper.Trailer.empty in
  let p = mark Viper.Trailer.Truncated base in
  (match entries p with
  | [ Viper.Trailer.Truncated ] -> ()
  | _ -> Alcotest.fail "expected marker");
  (* markers and hops mix *)
  let p2 = Viper.Trailer.append_hop p ~pos:0 (Seg.make ~port:7 ()) in
  match entries p2 with
  | [ Viper.Trailer.Truncated; Viper.Trailer.Hop h ] -> check_int "hop" 7 h.Seg.port
  | _ -> Alcotest.fail "expected marker then hop"

(* --- packet --- *)

let route3 =
  [ Seg.make ~port:3 (); Seg.make ~port:8 (); Seg.make ~port:Seg.local_port () ]

let build_normalizes_vnt () =
  let p = Pkt.build ~route:route3 ~data:(Bytes.of_string "hello") in
  let decoded = parsed p in
  match Pkt.route decoded with
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
  let pos = Seg.extent_to p ~off:0 ~stop:(Bytes.length p) in
  let seg = Seg.decode_sub p ~off:0 ~len:pos in
  check_int "stripped port" 3 seg.Seg.port;
  check_int "leading segment's extent" (Seg.encoded_size seg) pos;
  (* forward: strip + append return hop *)
  let return_seg = Seg.make ~flags:{ Seg.no_flags with Seg.rpf = true } ~port:1 () in
  let stripped, forwarded = Pkt.forward p ~return_seg in
  check_int "same stripped" 3 stripped.Seg.port;
  check_int "strip one segment, append one entry"
    (Bytes.length p - pos + Seg.encoded_size return_seg + 3)
    (Bytes.length forwarded);
  let decoded = parsed forwarded in
  check_int "route shortened" 2 (List.length (Pkt.route decoded));
  (match Pkt.trailer decoded with
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
  let final = parsed !p in
  check_int "only local segment left" 1 (List.length (Pkt.route final));
  let back = Result.get_ok (Pkt.return_route_r final) in
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
  let cut = Pkt.truncate_to p ~off:0 ~len:(Bytes.length p) ~max:50 in
  let decoded = parsed cut in
  check_bool "truncated flag" true (Pkt.truncated decoded);
  (match Pkt.return_route_r decoded with
  | Error (Seg.Malformed "Packet.return_route: truncated") -> ()
  | Error _ | Ok _ -> Alcotest.fail "a truncated trailer must not reverse");
  check_bool "no reply" true
    (Result.is_error (Pkt.reply decoded ~priority:0 ~data:Bytes.empty))

let truncate_noop_when_fits () =
  let p = Pkt.build ~route:route3 ~data:(Bytes.of_string "ok") in
  check_bool "unchanged" true
    (Bytes.equal p (Pkt.truncate_to p ~off:0 ~len:(Bytes.length p) ~max:10_000))

let encode_decode_identity () =
  let p =
    Pkt.build
      ~route:[ Seg.make ~port:9 ~token:(Bytes.make 5 't') (); Seg.make ~port:0 () ]
      ~data:(Bytes.of_string "abc")
  in
  let _, fwd =
    Pkt.forward p ~return_seg:(Seg.make ~port:2 ~info:(Bytes.make 14 'e') ())
  in
  let d = parsed fwd in
  check_bool "encode . decode = id" true
    (Bytes.equal (Ref.encode (Pkt.route d, d.Pkt.data, Pkt.trailer d)) fwd)

let peek_ports_pair () =
  let p = Pkt.build ~route:route3 ~data:Bytes.empty in
  let len = Bytes.length p in
  check_int "leading port" 3 (Pkt.next_port p ~off:0 ~len);
  check_bool "a segment follows" true (Seg.peek_vnt p ~off:0);
  check_int "second port" 8
    (Seg.peek_port p ~off:(Seg.extent_to p ~off:0 ~stop:len));
  let single = Pkt.build ~route:[ Seg.make ~port:0 () ] ~data:Bytes.empty in
  check_int "lone port" 0 (Pkt.next_port single ~off:0 ~len:(Bytes.length single));
  check_bool "nothing follows" false (Seg.peek_vnt single ~off:0)

let header_bytes_measures_first () =
  let p =
    Pkt.build
      ~route:[ Seg.make ~port:3 ~token:(Bytes.make 32 'k') (); Seg.make ~port:0 () ]
      ~data:Bytes.empty
  in
  check_int "first segment size" (4 + 32)
    (Seg.extent_to p ~off:0 ~stop:(Bytes.length p))

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
  let tr = trailer_size whole in
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
  match entries damaged with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "the trailer walk must reject an oversized total"

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
  (* the branch route itself parses back, as a packet's route *)
  match Pkt.route (parsed (Bytes.cat seg'.Seg.branch Viper.Trailer.empty)) with
  | [ a; b ] ->
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
  let p = mark Viper.Trailer.Branch p in
  let d = parsed p in
  check_bool "took_branch" true (Pkt.took_branch d);
  check_bool "not truncated" false (Pkt.truncated d);
  (* the marker annotates the trailer without poisoning the return route *)
  check_int "return route still one hop" 1
    (List.length (Result.get_ok (Pkt.return_route_r d)));
  match entries p with
  | [ Viper.Trailer.Hop _; Viper.Trailer.Branch ] -> ()
  | _ -> Alcotest.fail "trailer must read [Hop; Branch]"

let substitute_route_swaps_chain () =
  let route = [ Seg.make ~port:1 (); Seg.make ~port:2 (); Seg.make ~port:0 () ] in
  let p = Pkt.build ~route ~data:(Bytes.of_string "payload") in
  let alt =
    Pkt.encode_route_segments [ Seg.make ~port:8 (); Seg.make ~port:0 () ]
  in
  let d = parsed (Pkt.substitute_route p ~route:alt) in
  check_int "route replaced" 2 (List.length (Pkt.route d));
  check_int "new first hop" 8 (List.hd (Pkt.route d)).Seg.port;
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
      let p = parsed (Pkt.build ~route ~data:(Bytes.of_string data)) in
      Bytes.to_string p.Pkt.data = data && List.length (Pkt.route p) = hops)

(* the failover (one sized allocation) on a window must emit exactly the
   bytes of the two-copy composition it replaces, and leave the window
   as it was *)
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
        Ref.append_marker (Pkt.substitute_route !p ~route:alt) Viper.Trailer.Branch
      in
      let w, off, len = embed !p in
      let before = Bytes.copy w in
      Bytes.equal composed (Pkt.substitute_route_branch w ~off ~len ~route:alt)
      && Bytes.equal before w)

(* the fused per-hop strip + append (one sized allocation) must emit
   exactly the bytes of the two-copy composition it replaces *)
let qcheck_fused_hop_identical =
  QCheck.Test.make ~name:"fused append_hop = strip . reference append" ~count:200
    QCheck.(pair (int_range 2 8) (string_of_size Gen.(0 -- 256)))
    (fun (hops, data) ->
      let route =
        List.init hops (fun i ->
            Seg.make ~port:(if i = hops - 1 then 0 else 1 + i) ())
      in
      let p = Pkt.build ~route ~data:(Bytes.of_string data) in
      let return_seg = Seg.make ~token:(Bytes.of_string "tk") ~port:9 () in
      let pos = Seg.extent_to p ~off:0 ~stop:(Bytes.length p) in
      let stripped = Bytes.sub p pos (Bytes.length p - pos) in
      Bytes.equal
        (Ref.append_hop stripped return_seg)
        (Viper.Trailer.append_hop p ~pos return_seg))

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
      let back = Result.get_ok (Pkt.return_route_r (parsed !p)) in
      List.map (fun s -> s.Seg.port) back = List.rev in_ports)

let entry_equal a b =
  match (a, b) with
  | Viper.Trailer.Hop x, Viper.Trailer.Hop y -> Seg.equal x y
  | Viper.Trailer.Truncated, Viper.Trailer.Truncated
  | Viper.Trailer.Branch, Viper.Trailer.Branch ->
    true
  | _ -> false

let result_equal eq a b =
  match (a, b) with
  | Ok x, Ok y -> eq x y
  | Error x, Error y -> x = y
  | _ -> false

(* a packet against the reference's decoded lists *)
let packet_equal a (route, data, trailer) =
  List.equal Seg.equal (Pkt.route a) route
  && Bytes.equal a.Pkt.data data
  && List.equal entry_equal (Pkt.trailer a) trailer

let outcome f x = match f x with v -> Ok v | exception e -> Error (Printexc.to_string e)

(* The in-place arrival check and the window readers agree with the
   copying reference decode of the window's bytes, error values
   included. *)
let window_agrees b =
  let w, off, len = embed b in
  let same_packet p ((route, _, trailer) as reference) =
    packet_equal p reference
    && Pkt.took_branch p = List.exists (fun e -> e = Viper.Trailer.Branch) trailer
    && Pkt.terminates p
       = (match route with [ s ] -> s.Seg.port = Seg.local_port | _ -> false)
    && Pkt.truncated p = List.exists (fun e -> e = Viper.Trailer.Truncated) trailer
  in
  result_equal same_packet (Pkt.of_window w ~off ~len) (Ref.wrap Ref.decode b)
  && Pkt.intact w ~off ~len = Result.is_ok (Ref.wrap Ref.decode b)
  && outcome (fun () -> Viper.Trailer.entries_in w ~off ~len) ()
     = outcome Ref.entries b
  && Pkt.next_port w ~off ~len = Ref.next_port b

(* Every in-place read of [b] agrees with its reference: the packet
   parse, the trailer walk, the next-port peek, the segment extent read
   from every offset, and the same reads on [b] as a window. *)
let reads_agree b =
  let extents_agree = ref true in
  for off = 0 to Bytes.length b do
    if outcome (fun off -> Seg.extent_to b ~off ~stop:(Bytes.length b)) off
       <> outcome (Ref.consumed b) off
    then
      extents_agree := false
  done;
  !extents_agree
  && result_equal packet_equal (Pkt.parse b) (Ref.wrap Ref.decode b)
  && result_equal (List.equal entry_equal) (Ref.wrap entries b) (Ref.wrap Ref.entries b)
  && Pkt.next_port b ~off:0 ~len:(Bytes.length b) = Ref.next_port b
  && window_agrees b

(* field sizes on both sides of the 255-byte extended length *)
let field_gen =
  QCheck.Gen.(
    map Bytes.of_string
      (string_size (oneof [ int_range 0 8; int_range 250 260; int_range 0 300 ])))

let route_segment_gen =
  QCheck.Gen.(
    let* port = int_range 0 255 in
    let* priority = int_range 0 15 in
    let* vnt = bool and* dib = bool and* rpf = bool in
    let* token = field_gen and* info = field_gen in
    let* branch = oneof [ return ""; string_size (int_range 1 40) ] in
    return
      (Seg.make ~flags:{ Seg.vnt; dib; rpf } ~priority ~token ~info
         ~branch:(Bytes.of_string branch) ~port ()))

let build_case_gen =
  QCheck.Gen.(
    let* route = list_size (int_range 1 Pkt.max_route_segments) route_segment_gen in
    let* data = string_size (int_range 0 200) in
    let* priority = int_range 0 15 and* dib = bool and* last_vnt = bool in
    return (route, Bytes.of_string data, priority, dib, last_vnt))

let qcheck_build_byte_identical =
  QCheck.Test.make ~name:"exact build = normalize . write . empty trailer" ~count:150
    (QCheck.make build_case_gen) (fun (route, data, priority, dib, last_vnt) ->
      Bytes.equal (Pkt.build ~route ~data) (Ref.build ~route ~data)
      && Bytes.equal
           (Pkt.build_stamped ~tailroom:0 ~priority ~dib ~route ~data)
           (Ref.build ~route:(Ref.stamp ~priority ~dib route) ~data)
      && Bytes.equal (Pkt.encode_route_segments route) (Ref.write_route route)
      && (let w = Wire.Buf.create_writer 64 in
          Seg.write_route w ~last_vnt route;
          Bytes.equal (Wire.Buf.contents w) (Ref.write_route ~last_vnt route))
      && Bytes.equal
           (Viper.Multicast.encode_branches [ route; [ Seg.make ~port:0 () ] ])
           (let w = Wire.Buf.create_writer 64 in
            Wire.Buf.put_u8 w 2;
            List.iter
              (fun b ->
                Wire.Buf.put_u16 w (Bytes.length b);
                Wire.Buf.put_bytes w b)
              [ Ref.write_route route; Ref.write_route [ Seg.make ~port:0 () ] ];
            Wire.Buf.contents w))

(* A packet that crossed [List.length returns] routers, each appending
   its return hop. *)
let travelled ~route ~data ~returns =
  List.fold_left (fun p r -> snd (Pkt.forward p ~return_seg:r)) (Pkt.build ~route ~data)
    returns

(* The reply builder reads the trailer in place and allocates only what
   it returns: the buffer, and for {!Pkt.reserve_reply} the pair and
   its [Ok] (5 words), for {!Pkt.reply} the same again once it has
   blitted the data (10 words). Measured on a 3-hop trailer: exactly 5
   and 10 words past the buffer per call. *)
let reply_allocation () =
  let route = List.map (fun port -> Seg.make ~port ()) [ 3; 7; 2; Seg.local_port ] in
  let returns =
    [
      Seg.make ~port:1 ~info:(Bytes.make 6 'i') ();
      Seg.make ~port:4 ~token:(Bytes.make 16 't') ();
      Seg.make ~port:5 ();
    ]
  in
  let p =
    match Pkt.parse (travelled ~route ~data:(Bytes.make 40 'd') ~returns) with
    | Ok p -> p
    | Error _ -> Alcotest.fail "travelled packet does not parse"
  in
  let data = Bytes.make 64 'r' in
  let buffer_words =
    match Pkt.reply p ~priority:0 ~data with
    | Ok (out, _) -> 1 + ((Bytes.length out + 8) / 8)
    | Error _ -> Alcotest.fail "no reply"
  in
  let replies = 10_000 in
  let per_call f =
    let w0 = Gc.minor_words () in
    for _ = 1 to replies do
      ignore (Sys.opaque_identity (f ()))
    done;
    ((Gc.minor_words () -. w0) /. float_of_int replies) -. float_of_int buffer_words
  in
  let reserve = per_call (fun () -> Pkt.reserve_reply p ~priority:0 ~len:64) in
  let reply = per_call (fun () -> Pkt.reply p ~priority:0 ~data) in
  if reserve > 5.0 then Alcotest.failf "reserve_reply: buffer + %.2f words (> 5)" reserve;
  if reply > 10.0 then Alcotest.failf "reply: buffer + %.2f words (> 10)" reply

(* [p] with no marker, a branch marker or a truncation marker *)
let marked k p =
  match k with
  | 1 -> Ref.append_marker p Viper.Trailer.Branch
  | 2 -> Ref.append_marker p Viper.Trailer.Truncated
  | _ -> p

let qcheck_reads_in_place =
  QCheck.Test.make ~name:"in-place parse/entries/peeks = copying reference" ~count:150
    QCheck.(
      make
        Gen.(
          let* route = list_size (int_range 1 6) route_segment_gen in
          let* hops = int_range 0 (List.length route - 1) in
          let* returns = list_repeat hops route_segment_gen in
          let* data = string_size (int_range 0 64) in
          let* mark = int_range 0 2 in
          return (route, returns, Bytes.of_string data, mark)))
    (fun (route, returns, data, mark) ->
      reads_agree (marked mark (travelled ~route ~data ~returns)))

(* [p] with one more trailer entry holding [raw] under a valid checksum:
   bytes no router would write, which must still be a segment. *)
let append_raw_entry p raw = Ref.with_appended p (Ref.hop_entry raw)

(* Random damage to a travelled packet — a few bit flips anywhere, or a
   cut — and entries of raw bytes under valid checksums: the in-place
   arrival check still gives exactly the copying parse's verdict and
   contents. *)
let qcheck_arrival_check_agrees =
  QCheck.Test.make ~name:"in-place arrival check = parse on damaged packets" ~count:300
    QCheck.(
      make
        Gen.(
          let* route = list_size (int_range 1 5) route_segment_gen in
          let* hops = int_range 0 (List.length route - 1) in
          let* returns = list_repeat hops route_segment_gen in
          let* data = string_size (int_range 0 64) in
          let* mark = int_range 0 2 in
          let* flips = list_size (int_range 0 4) (pair nat (int_range 0 7)) in
          let* cut = oneof [ return None; map Option.some nat ] in
          let* raw = oneof [ return None; map Option.some (string_size (int_range 0 12)) ] in
          return (route, returns, Bytes.of_string data, mark, flips, cut, raw)))
    (fun (route, returns, data, mark, flips, cut, raw) ->
      let p = marked mark (travelled ~route ~data ~returns) in
      let p = match raw with Some r -> append_raw_entry p (Bytes.of_string r) | None -> p in
      List.iter
        (fun (i, bit) ->
          let i = i mod Bytes.length p in
          Bytes.set p i (Char.chr (Char.code (Bytes.get p i) lxor (1 lsl bit))))
        flips;
      let p = match cut with Some n -> Bytes.sub p 0 (n mod (Bytes.length p + 1)) | None -> p in
      window_agrees p)

(* The hop as it was: read the segment, revise it into a return hop
   (Ethernet addresses swapped), and strip + append in one copy. *)
let reference_hop p ~in_port ~keep_token ~info =
  let pos = Seg.extent_to p ~off:0 ~stop:(Bytes.length p) in
  let seg = Seg.decode_sub p ~off:0 ~len:pos in
  let revise info =
    if Bytes.length info = Ether.Frame.header_size then begin
      let h = Ether.Frame.read_header (Wire.Buf.reader_of_bytes info) in
      let w = Wire.Buf.create_writer Ether.Frame.header_size in
      Ether.Frame.write_header w (Ether.Frame.swap h);
      Wire.Buf.contents w
    end
    else info
  in
  let token = if keep_token then seg.Seg.token else Bytes.empty in
  let info = match info with Some i -> i | None -> revise seg.Seg.info in
  Ref.append_hop (Bytes.sub p pos (Bytes.length p - pos))
    (Seg.return_hop seg ~port:in_port ~token ~info)

(* One hop on a window: in place when [buf] has the room, else into a
   fresh window with room for the rest, as a router does. Returns the
   new window. *)
let window_hop (buf, off, len) ~in_port ~keep_token ~info ~copy =
  let hdr = Seg.extent_to buf ~off ~stop:(off + len) in
  let rlen = Seg.return_hop_size buf ~off ~port:in_port ~keep_token ~info in
  if (not copy) && off + len + rlen + 3 <= Bytes.length buf then
    let len =
      Viper.Trailer.append_return_hop buf ~off ~len ~pos:hdr ~port:in_port ~keep_token
        ~info buf ~at:(off + hdr)
    in
    (buf, off + hdr, len)
  else begin
    let room = Pkt.tailroom_in buf ~off:(off + hdr) ~len:(len - hdr) in
    let dst = Bytes.make (len - hdr + rlen + 3 + room) '\xEE' in
    let len =
      Viper.Trailer.append_return_hop buf ~off ~len ~pos:hdr ~port:in_port ~keep_token
        ~info dst ~at:0
    in
    (dst, 0, len)
  end

let window_bytes (buf, off, len) = Bytes.sub buf off len

let hop_field_gen =
  QCheck.Gen.(
    oneof
      [
        field_gen;
        map Bytes.of_string (string_size (return Ether.Frame.header_size));
      ])

(* A router segment: any port but local delivery, tokens and portInfo of
   every shape (Ethernet-sized included), sometimes a branch. *)
let hop_segment_gen =
  QCheck.Gen.(
    let* port = int_range 1 254 in
    let* priority = int_range 0 15 in
    let* dib = bool and* rpf = bool in
    let* token = hop_field_gen and* info = hop_field_gen in
    let* branch = oneof [ return ""; string_size (int_range 1 12) ] in
    return
      (Seg.make ~flags:{ Seg.vnt = false; dib; rpf } ~priority ~token ~info
         ~branch:(Bytes.of_string branch) ~port ()))

(* Each hop: in-port, keep the token, an injected portInfo, a multicast
   copy of this hop, a truncation after it, and sometimes a failover
   before it onto a branch whose first segment is new. *)
let hop_gen =
  QCheck.Gen.(
    let* in_port = int_range 1 239 and* keep_token = bool in
    let* info = oneof [ return None; map Option.some hop_field_gen ] in
    let* copy = bool and* truncate = int_range 0 9 in
    let* failover = frequency [ (5, return None); (1, map Option.some hop_segment_gen) ] in
    return (in_port, keep_token, info, copy, truncate = 0, failover))

(* One operation on both sides: [reference] on the reference's packet and
   [on_window] on the window. Both fail, or the new window holds the
   reference's bytes. The source window is left as it was unless the
   operation [moves] it (an in-place hop). *)
let both ~what ~moves reference on_window (expected, window) =
  match expected with
  | Error _ -> (expected, window)
  | Ok p -> (
    let before = window_bytes window in
    let e = outcome reference p and w = outcome on_window window in
    if (not moves) && not (Bytes.equal before (window_bytes window)) then
      QCheck.Test.fail_reportf "%s wrote its source window" what;
    match (e, w) with
    | Ok e, Ok w ->
      if not (Bytes.equal e (window_bytes w)) then
        QCheck.Test.fail_reportf "%s: window bytes differ from the reference" what;
      (Ok e, w)
    | Error _, Error _ -> (e, window)
    | Ok _, Error m | Error m, Ok _ ->
      QCheck.Test.fail_reportf "%s: only one side failed: %s" what m)

let whole b = (b, 0, Bytes.length b)

(* The window after k hops holds exactly the bytes the copying hop makes,
   whether each hop runs in place or into a fresh window, with branch and
   truncation markers in the trailer, a multicast copy taken at any hop
   (the original window must not move), and failover and truncation on
   the way, each applied to the window where it lies and checked against
   its whole-buffer reference. *)
let qcheck_window_hops =
  QCheck.Test.make ~name:"window after k hops = append_hop reference, failovers and cuts"
    ~count:200
    QCheck.(
      make
        Gen.(
          let* routers = list_size (int_range 1 6) hop_segment_gen in
          let* hops = list_repeat (List.length routers) hop_gen in
          let* data = string_size (int_range 0 80) in
          let* mark = int_range 0 2 in
          return (routers, hops, Bytes.of_string data, mark)))
    (fun (routers, hops, data, mark) ->
      let route = routers @ [ Seg.make ~port:Seg.local_port () ] in
      let tailroom = Pkt.tailroom route in
      let exact = marked mark (Pkt.build ~route ~data) in
      if Pkt.tailroom_in exact ~off:0 ~len:(Bytes.length exact) <> tailroom then
        QCheck.Test.fail_report "tailroom read off the wire differs";
      (* the marker's two bytes come out of the tailroom *)
      let buf = Bytes.make (Bytes.length exact + tailroom) '\xEE' in
      Bytes.blit exact 0 buf 0 (Bytes.length exact);
      (* hop [i] strips [route]'s segment [i]; the route after it stays *)
      let step state (i, (in_port, keep_token, info, copy, truncate, failover)) =
        let state =
          match failover with
          | None -> state
          | Some seg ->
            let branch = Ref.write_route (seg :: List.filteri (fun j _ -> j > i) route) in
            both ~what:"failover" ~moves:false
              (fun p ->
                Ref.append_marker (Pkt.substitute_route p ~route:branch) Viper.Trailer.Branch)
              (fun (b, off, len) -> whole (Pkt.substitute_route_branch b ~off ~len ~route:branch))
              state
        in
        let state =
          both ~what:"hop" ~moves:(not copy)
            (fun p -> reference_hop p ~in_port ~keep_token ~info)
            (fun w -> window_hop w ~in_port ~keep_token ~info ~copy)
            state
        in
        match state with
        | Ok e, _ when truncate && Bytes.length e > 8 ->
          let max = Bytes.length e - 8 in
          both ~what:"truncation" ~moves:false (Ref.truncate ~max)
            (fun (b, off, len) -> whole (Pkt.truncate_to b ~off ~len ~max))
            state
        | _ -> state
      in
      let reference, window =
        List.fold_left step (Ok exact, (buf, 0, Bytes.length exact))
          (List.mapi (fun i h -> (i, h)) hops)
      in
      (match reference with
      | Ok p ->
        if not (Bytes.equal p (window_bytes window)) then
          QCheck.Test.fail_report "final window differs";
        window_agrees p
      | Error _ -> true))

(* XSR on windows: the sniff and the next port read the same through a
   window embedded in a larger buffer as from the packet's own bytes, and
   the packet unfolded for a receiver is local delivery with the lanes
   recorded so far as its trailer, after every step. The route is folded
   straight from the segments. *)
let qcheck_xsr_windows =
  QCheck.Test.make ~name:"XSR window reads = exact-buffer reads" ~count:200
    QCheck.(
      make
        Gen.(
          let* ports = list_size (int_range 1 Viper.Xsr.width) (int_range 1 239) in
          let* in_ports = list_repeat (List.length ports) (int_range 1 239) in
          let* priority = int_range 0 15 in
          let* data = string_size (int_range 0 40) in
          return (ports, in_ports, priority, Bytes.of_string data)))
    (fun (ports, in_ports, priority, data) ->
      let segments =
        List.map (fun port -> Seg.make ~port ()) ports @ [ Seg.make ~port:Seg.local_port () ]
      in
      let b = Viper.Xsr.encode_segments ~priority ~segments ~data in
      let same () =
        let w, off, len = embed b in
        Viper.Xsr.is_xsr_in w ~off ~len
        && Pkt.next_port w ~off ~len = Ref.next_port b
        &&
        let p = Pkt.of_xsr b in
        let lanes =
          List.map
            (function Viper.Trailer.Hop s -> s.Seg.port | Truncated | Branch -> -1)
            (Pkt.trailer p)
        in
        List.equal Seg.equal (Pkt.route p) [ Seg.make ~priority ~port:Seg.local_port () ]
        && lanes = List.rev (Viper.Xsr.reverse_ports b)
        && Bytes.equal p.Pkt.data data
        && Pkt.terminates p
      in
      Bytes.equal b (Viper.Xsr.encode ~priority ~ports ~data ())
      && same ()
      && List.for_all
           (fun in_port ->
             (match Viper.Xsr.step b ~in_port with
             | Viper.Xsr.Forward _ -> ()
             | Viper.Xsr.Deliver | Viper.Xsr.Malformed _ -> QCheck.Test.fail_report "step");
             same ())
           in_ports)

(* The reply written from [p]'s trailer in place against the reference's
   list composition over [trailer], its entries: the same packet bytes,
   the same tailroom past them, the same return route list, or an error
   on both sides. *)
let reply_agrees p trailer ~priority ~data =
  (match (Pkt.reply p ~priority ~data, Ref.reply trailer ~priority ~data) with
  | Ok (out, len), Ok (expected, route) ->
    if not (Bytes.equal (Bytes.sub out 0 len) expected) then
      QCheck.Test.fail_report "reply bytes differ from the reference";
    if Bytes.length out - len <> Pkt.tailroom route then
      QCheck.Test.fail_report "reply tailroom differs from the route's";
    true
  | Error _, Error _ -> true
  | Ok _, Error _ | Error _, Ok _ -> QCheck.Test.fail_report "only one side failed")
  &&
  match (Pkt.return_route_r p, Ref.return_route trailer) with
  | Ok route, Ok expected -> List.equal Seg.equal route expected
  | Error _, Error _ -> true
  | Ok _, Error _ | Error _, Ok _ -> false

(* A segment no router writes: each field in the extended length form
   whatever its length when [ext_token]/[ext_info] (always when 255
   bytes or more), any flags, sometimes a branch. *)
let extended_entry_gen =
  QCheck.Gen.(
    let* port = int_range 0 255 and* priority = int_range 0 15 in
    let* bits = int_range 0 7 in
    let* token = field_gen and* info = field_gen in
    let* ext_token = bool and* ext_info = bool in
    let* branch = oneof [ return ""; string_size (int_range 1 12) ] in
    let field ext b =
      let n = Bytes.length b in
      if ext || n >= 255 then begin
        let f = Bytes.create (4 + n) in
        Bytes.set_int32_be f 0 (Int32.of_int n);
        Bytes.blit b 0 f 4 n;
        (255, f)
      end
      else (n, b)
    in
    let tlb, tf = field ext_token token and ilb, inf = field ext_info info in
    let head = Bytes.create 4 in
    Bytes.set head 0 (Char.chr ilb);
    Bytes.set head 1 (Char.chr tlb);
    Bytes.set head 2 (Char.chr port);
    let brf = if branch = "" then 0 else 1 in
    Bytes.set head 3 (Char.chr ((((bits lsl 1) lor brf) lsl 4) lor priority));
    let tail =
      if branch = "" then Bytes.empty
      else begin
        let t = Bytes.create (2 + String.length branch) in
        Bytes.set_uint16_be t 0 (String.length branch);
        Bytes.blit_string branch 0 t 2 (String.length branch);
        t
      end
    in
    return (Bytes.concat Bytes.empty [ head; tf; inf; tail ]))

(* A router segment for the reply property: tokens of 0-300 bytes,
   portInfo void, 6 bytes or an Ethernet header, any DIB and priority. *)
let reply_router_gen =
  QCheck.Gen.(
    let* port = int_range 1 254 and* priority = int_range 0 15 and* dib = bool in
    let* token = map Bytes.of_string (string_size (int_range 0 300)) in
    let* info =
      map Bytes.of_string (oneofl [ 0; 6; Ether.Frame.header_size ] >>= fun n -> string_size (return n))
    in
    return
      (Seg.make ~flags:{ Seg.no_flags with Seg.dib } ~priority ~token ~info ~port ()))

(* After each hop: the in-port (local delivery sometimes), whether the
   token is kept, a branch marker, a truncation marker, a hand-made
   entry. *)
let reply_hop_gen =
  QCheck.Gen.(
    let* in_port = frequency [ (1, return Seg.local_port); (9, int_range 1 255) ] in
    let* keep_token = bool in
    let* branch = frequency [ (4, return false); (1, return true) ] in
    let* truncate = frequency [ (15, return false); (1, return true) ] in
    let* entry = frequency [ (3, return None); (1, map Option.some extended_entry_gen) ] in
    return (in_port, keep_token, branch, truncate, entry))

let qcheck_reply_in_place =
  QCheck.Test.make ~name:"reply written from the trailer = reference list composition"
    ~count:300
    QCheck.(
      make
        Gen.(
          let* routers = list_size (int_range 1 12) reply_router_gen in
          let* hops = list_repeat (List.length routers) reply_hop_gen in
          let* data = string_size (int_range 0 80) and* reply = string_size (int_range 0 80) in
          let* priority = int_range 0 15 in
          return (routers, hops, Bytes.of_string data, Bytes.of_string reply, priority)))
    (fun (routers, hops, data, reply, priority) ->
      let route = routers @ [ Seg.make ~port:Seg.local_port () ] in
      let arrived =
        List.fold_left
          (fun p (in_port, keep_token, branch, truncate, entry) ->
            let p = window_bytes (window_hop (whole p) ~in_port ~keep_token ~info:None ~copy:true) in
            let p = if branch then Ref.append_marker p Viper.Trailer.Branch else p in
            let p = if truncate then Ref.append_marker p Viper.Trailer.Truncated else p in
            match entry with Some raw -> append_raw_entry p raw | None -> p)
          (Pkt.build ~route ~data) hops
      in
      let w, off, len = embed arrived in
      match Pkt.of_window w ~off ~len with
      | Error _ -> QCheck.Test.fail_report "an arrived packet must parse"
      | Ok p -> reply_agrees p (Ref.entries arrived) ~priority ~data:reply)

(* The same for XSR arrivals: the reply rides the reverse lanes. *)
let qcheck_xsr_reply_in_place =
  QCheck.Test.make ~name:"XSR reply written from the lanes = reference list composition"
    ~count:200
    QCheck.(
      make
        Gen.(
          let* ports = list_size (int_range 1 Viper.Xsr.width) (int_range 1 239) in
          let* in_ports = list_repeat (List.length ports) (int_range 0 255) in
          let* priority = int_range 0 15 and* reply_priority = int_range 0 15 in
          let* data = string_size (int_range 0 40) and* reply = string_size (int_range 0 40) in
          return (ports, in_ports, priority, reply_priority, Bytes.of_string data, Bytes.of_string reply)))
    (fun (ports, in_ports, priority, reply_priority, data, reply) ->
      let b = Viper.Xsr.encode ~priority ~ports ~data () in
      List.for_all
        (fun in_port ->
          ignore (Viper.Xsr.step b ~in_port);
          let p = Pkt.of_xsr b in
          reply_agrees p (Pkt.trailer p) ~priority:reply_priority ~data:reply)
        in_ports)

(* Damage: every single-bit flip, and every cut, of a packet three
   routers have appended to. Each read must give the reference's value
   or the reference's error. *)
let damaged_reads_agree () =
  let route =
    [
      Seg.make ~port:3 ~token:(Bytes.make 6 't') ();
      Seg.make ~port:4 ~info:(Bytes.make 14 'e') ();
      Seg.make ~port:5 ~branch:(Bytes.make 4 'b') ();
      Seg.make ~port:0 ();
    ]
  in
  let returns =
    [
      Seg.make ~flags:{ Seg.no_flags with Seg.rpf = true } ~token:(Bytes.make 6 't')
        ~port:11 ();
      Seg.make ~flags:{ Seg.no_flags with Seg.rpf = true; dib = true }
        ~info:(Bytes.make 14 'e') ~port:12 ();
      Seg.make ~flags:{ Seg.no_flags with Seg.rpf = true } ~priority:9 ~port:13 ();
    ]
  in
  let p = travelled ~route ~data:(Bytes.of_string "payload") ~returns in
  check_bool "intact" true (reads_agree p);
  check_bool "intact parses" true (Result.is_ok (Pkt.parse p));
  for bit = 0 to (8 * Bytes.length p) - 1 do
    let q = Bytes.copy p in
    let i = bit / 8 in
    Bytes.set q i (Char.chr (Char.code (Bytes.get q i) lxor (1 lsl (bit mod 8))));
    if not (reads_agree q) then Alcotest.failf "bit %d: in-place read differs" bit
  done;
  for n = 0 to Bytes.length p - 1 do
    if not (reads_agree (Bytes.sub p 0 n)) then
      Alcotest.failf "cut at %d: in-place read differs" n
  done

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
          Alcotest.test_case "reply allocation" `Quick reply_allocation;
          Alcotest.test_case "truncate noop when fits" `Quick truncate_noop_when_fits;
          Alcotest.test_case "encode/decode identity" `Quick encode_decode_identity;
          Alcotest.test_case "peek ports" `Quick peek_ports_pair;
          Alcotest.test_case "damaged reads = reference" `Quick damaged_reads_agree;
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
        List.map Seeded.to_alcotest
          [
            qcheck_segment_roundtrip;
            qcheck_size_matches;
            qcheck_packet_roundtrip;
            qcheck_fused_branch_identical;
            qcheck_fused_hop_identical;
            qcheck_reversal_is_reverse;
            qcheck_build_byte_identical;
            qcheck_reads_in_place;
            qcheck_arrival_check_agrees;
            qcheck_window_hops;
            qcheck_xsr_windows;
            qcheck_reply_in_place;
            qcheck_xsr_reply_in_place;
          ] );
    ]
