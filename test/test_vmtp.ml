(* Tests for the VMTP-style transport: wire format, MPL rule, transactions,
   selective retransmission, misdelivery defense, route failover. *)

module G = Topo.Graph
module W = Netsim.World
module Wf = Vmtp.Wire_format

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Wire format *)

(* The codec as it was before packets were written from a window: a
   record with its own copy of the data, a Wire.Buf writer whose
   contents are copied out, and a checksum check that zeroes the field
   in a copy. {!Wf} must give the same bytes and the same verdicts. *)
module Ref = struct
  type t = {
    src_entity : int64;
    dst_entity : int64;
    transaction : int;
    kind : Wf.kind;
    index : int;
    group_size : int;
    acks_response : bool;
    delivery_mask : int32;
    timestamp_ms : int;
    data : bytes;
  }

  let kind_to_int = function Wf.Request -> 0 | Wf.Response -> 1 | Wf.Ack -> 2

  let encode t =
    let w =
      Wire.Buf.create_writer (Wf.header_size + Bytes.length t.data + Wf.trailer_size)
    in
    Wire.Buf.put_u64 w t.src_entity;
    Wire.Buf.put_u64 w t.dst_entity;
    Wire.Buf.put_u32_int w (t.transaction land 0xFFFFFFFF);
    Wire.Buf.put_u8 w (kind_to_int t.kind);
    Wire.Buf.put_u8 w t.index;
    Wire.Buf.put_u8 w t.group_size;
    Wire.Buf.put_u8 w (if t.acks_response then 1 else 0);
    Wire.Buf.put_u32 w t.delivery_mask;
    Wire.Buf.put_bytes w t.data;
    Wire.Buf.put_u32_int w (t.timestamp_ms land 0xFFFFFFFF);
    Wire.Buf.put_u16 w 0;
    Wire.Buf.put_u16 w 0;
    let b = Wire.Buf.contents w in
    Bytes.set_uint16_be b (Bytes.length b - 4) (Ipbase.Checksum.compute b);
    b

  let checksum_ok b =
    if Bytes.length b < Wf.header_size + Wf.trailer_size then false
    else begin
      let copy = Bytes.copy b in
      let sum_field = Bytes.get_uint16_be copy (Bytes.length copy - 4) in
      Bytes.set_uint16_be copy (Bytes.length copy - 4) 0;
      Ipbase.Checksum.compute copy = sum_field
    end
end

(* [f] written by the one-pass encoder, its data taken as a window
   [pre] bytes into a larger buffer. *)
let encode ?(pre = 0) (f : Ref.t) =
  let len = Bytes.length f.Ref.data in
  let message = Bytes.make (pre + len + 3) '#' in
  Bytes.blit f.Ref.data 0 message pre len;
  Wf.encode ~src:f.Ref.src_entity ~dst:f.Ref.dst_entity ~txn:f.Ref.transaction
    ~kind:f.Ref.kind ~index:f.Ref.index ~group_size:f.Ref.group_size
    ~acks_response:f.Ref.acks_response
    ~mask:(Int32.to_int f.Ref.delivery_mask land 0xFFFFFFFF)
    ~timestamp_ms:f.Ref.timestamp_ms message ~off:pre ~len

(* The fields read in place, the data copied out of its window. *)
let read b =
  {
    Ref.src_entity = Wf.src_entity b;
    dst_entity = Wf.dst_entity b;
    transaction = Wf.transaction b;
    kind = Wf.kind b;
    index = Wf.index b;
    group_size = Wf.group_size b;
    acks_response = Wf.acks_response b;
    delivery_mask = Int32.of_int (Wf.delivery_mask b);
    timestamp_ms = Wf.timestamp_ms b;
    data = Bytes.sub b Wf.header_size (Wf.data_len b);
  }

let sample =
  {
    Ref.src_entity = 0x1111222233334444L;
    dst_entity = 0x5555666677778888L;
    transaction = 42;
    kind = Wf.Request;
    index = 3;
    group_size = 8;
    acks_response = false;
    delivery_mask = 0xF0l;
    timestamp_ms = 123456;
    data = Bytes.of_string "transport data";
  }

let wf_roundtrip () =
  let b = encode ~pre:5 sample in
  check_int "size" (Wf.header_size + 14 + Wf.trailer_size) (Bytes.length b);
  check_bool "checksum ok" true (Wf.checksum_ok b);
  check_bool "valid" true (Wf.valid b);
  check_bool "fields" true (read b = sample)

let wf_detects_corruption () =
  let b = encode sample in
  Bytes.set b 30 (Char.chr (Char.code (Bytes.get b 30) lxor 1));
  check_bool "bad checksum" false (Wf.checksum_ok b);
  check_bool "invalid" false (Wf.valid b)

let wf_kinds_roundtrip () =
  List.iter
    (fun kind ->
      let b = encode { sample with Ref.kind } in
      check_bool "kind" true (Wf.kind b = kind))
    [ Wf.Request; Wf.Response; Wf.Ack ];
  (* an unknown kind with a correct checksum is not a valid packet *)
  let b = encode sample in
  Bytes.set_uint8 b 20 3;
  Bytes.set_uint16_be b (Bytes.length b - 4) 0;
  Bytes.set_uint16_be b (Bytes.length b - 4) (Ipbase.Checksum.compute b);
  check_bool "checksum of unknown kind" true (Wf.checksum_ok b);
  check_bool "unknown kind invalid" false (Wf.valid b)

let wf_rejects_bad_sizes () =
  Alcotest.check_raises "index range" (Invalid_argument "Wire_format: index")
    (fun () -> ignore (encode { sample with Ref.index = 32 }));
  Alcotest.check_raises "group range" (Invalid_argument "Wire_format: group size")
    (fun () -> ignore (encode { sample with Ref.group_size = 33 }));
  check_bool "short packet" false (Wf.valid (Bytes.make 35 '\000'))

let mask_operations () =
  let m = Wf.mask_with (Wf.mask_with 0 0) 2 in
  check_bool "has 0" true (Wf.mask_has m 0);
  check_bool "not 1" false (Wf.mask_has m 1);
  check_bool "not 3" false (Wf.mask_has m 3);
  check_int "bit 31" 0x80000005 (Wf.mask_with m 31);
  check_int "full 32" 0xFFFFFFFF (Wf.mask_full 32);
  check_int "full 4" 0xF (Wf.mask_full 4);
  check_bool "full has 3" true (Wf.mask_has (Wf.mask_full 4) 3);
  check_bool "full lacks 4" false (Wf.mask_has (Wf.mask_full 4) 4)

let gen_fields =
  QCheck.Gen.(
    let* index = int_range 0 31 in
    let* group_size = int_range (index + 1) 32 in
    let* src_entity = ui64 and* dst_entity = ui64 in
    let* transaction = int_range 0 0xFFFFFFFF in
    let* kind = oneofl [ Wf.Request; Wf.Response; Wf.Ack ] in
    let* acks_response = bool in
    let* delivery_mask = ui32 in
    let* timestamp_ms = int_range 0 0xFFFFFFFF in
    let* data = bytes_size (int_range 0 1100) in
    return
      {
        Ref.src_entity;
        dst_entity;
        transaction;
        kind;
        index;
        group_size;
        acks_response;
        delivery_mask;
        timestamp_ms;
        data;
      })

let qcheck_wf_roundtrip =
  QCheck.Test.make ~name:"wire format roundtrip" ~count:200
    (QCheck.make QCheck.Gen.(pair gen_fields (int_range 0 64)))
    (fun (f, pre) ->
      let b = encode ~pre f in
      Wf.valid b && read b = f)

(* A packet whose correct checksum is 0x0000: its pad (a word at an odd
   offset when the length is odd, so written byte-swapped) is set so
   that the packet with its checksum field zeroed sums to 0xFFFF. *)
let with_zero_checksum b =
  let b = Bytes.copy b in
  let n = Bytes.length b in
  Bytes.set_uint16_be b (n - 4) 0;
  Bytes.set_uint16_be b (n - 2) 0;
  let pad = Ipbase.Checksum.compute b in
  if n land 1 = 0 then Bytes.set_uint16_be b (n - 2) pad
  else Bytes.set_uint16_le b (n - 2) pad;
  Bytes.set_uint16_be b (n - 4) (Ipbase.Checksum.compute b);
  b

(* The one-pass encoder writes the reference's bytes, and the in-place
   check agrees with the copying one on every packet: as sent, damaged
   in one byte (the checksum field's included), with the field set to
   0x0000 or 0xFFFF, on packets whose correct checksum is 0x0000, on all
   zeros and on short buffers. Data lengths of both parities put the
   field at even and odd offsets. *)
let qcheck_checksum_references =
  QCheck.Test.make ~name:"checksum and encoder match references" ~count:500
    (QCheck.make
       QCheck.Gen.(
         quad gen_fields (int_range 0 64) (pair nat (int_range 1 255))
           (int_range 0 40)))
    (fun (f, pre, (at, flip), zeros) ->
      let b = encode ~pre f in
      let agree b = Wf.checksum_ok b = Ref.checksum_ok b in
      let damaged = Bytes.copy b in
      let at = at mod Bytes.length b in
      Bytes.set_uint8 damaged at (Bytes.get_uint8 damaged at lxor flip);
      let field v =
        let b = Bytes.copy b in
        Bytes.set_uint16_be b (Bytes.length b - 4) v;
        b
      in
      let zero = with_zero_checksum b in
      let zero_as_ffff = Bytes.copy zero in
      Bytes.set_uint16_be zero_as_ffff (Bytes.length zero - 4) 0xFFFF;
      let blank v =
        let b = Bytes.make (zeros + 1) '\000' in
        if Bytes.length b >= 4 then Bytes.set_uint16_be b (Bytes.length b - 4) v;
        b
      in
      Bytes.equal b (Ref.encode f)
      && Wf.checksum_ok b
      && Wf.checksum_ok zero
      && Bytes.get_uint16_be zero (Bytes.length zero - 4) = 0
      && List.for_all agree
           [ b; damaged; field 0; field 0xFFFF; zero; zero_as_ffff; blank 0; blank 0xFFFF ])

(* Written at [at] inside a larger buffer, a packet is the reference's
   bytes and nothing else of the buffer changes. The buffer is filled
   with a pattern first, so the checksum field holds stale nonzero bytes
   before it is written; offsets 0-7 put the packet's start, and with
   data of either parity its checksum field, at both parities of the
   buffer. Data is empty, a full 1024-byte chunk, or 1-1100 bytes. *)
let qcheck_encode_into_offsets =
  QCheck.Test.make ~name:"encode_into at an offset writes the reference's bytes" ~count:300
    (QCheck.make
       QCheck.Gen.(
         let* f = gen_fields in
         let* data =
           frequency
             [
               (1, return Bytes.empty);
               (1, bytes_size (return 1024));
               (3, bytes_size (int_range 1 1100));
             ]
         in
         let* at = int_range 0 7 and* slack = int_range 0 9 and* salt = int_range 1 255 in
         return ({ f with Ref.data }, at, slack, salt)))
    (fun (f, at, slack, salt) ->
      let len = Bytes.length f.Ref.data in
      let size = at + Wf.header_size + len + Wf.trailer_size + slack in
      let b = Bytes.init size (fun i -> Char.chr (((i * 131) + salt) land 0xFF)) in
      let expected = Bytes.copy b in
      let reference = Ref.encode f in
      Bytes.blit reference 0 expected at (Bytes.length reference);
      Wf.encode_into b ~at ~src:f.Ref.src_entity ~dst:f.Ref.dst_entity ~txn:f.Ref.transaction
        ~kind:f.Ref.kind ~index:f.Ref.index ~group_size:f.Ref.group_size
        ~acks_response:f.Ref.acks_response
        ~mask:(Int32.to_int f.Ref.delivery_mask land 0xFFFFFFFF)
        ~timestamp_ms:f.Ref.timestamp_ms f.Ref.data ~off:0 ~len;
      Bytes.equal b expected)

(* MPL rule *)

let mpl_accepts_fresh () =
  check_bool "fresh" true
    (Vmtp.Mpl.acceptable ~now_ms:10_000 ~boot_ms:0 ~mpl_ms:5_000
       ~skew_allowance_ms:100 ~timestamp_ms:9_000)

let mpl_rejects_old () =
  check_bool "stale" false
    (Vmtp.Mpl.acceptable ~now_ms:100_000 ~boot_ms:0 ~mpl_ms:5_000
       ~skew_allowance_ms:100 ~timestamp_ms:90_000)

let mpl_rejects_pre_boot () =
  (* packet older than our boot: a recently booted machine discards *)
  check_bool "pre-boot" false
    (Vmtp.Mpl.acceptable ~now_ms:100_000 ~boot_ms:99_000 ~mpl_ms:30_000
       ~skew_allowance_ms:100 ~timestamp_ms:98_000)

let mpl_accepts_small_skew () =
  check_bool "skewed ok" true
    (Vmtp.Mpl.acceptable ~now_ms:10_000 ~boot_ms:0 ~mpl_ms:5_000
       ~skew_allowance_ms:2_000 ~timestamp_ms:11_000);
  check_bool "too far future" false
    (Vmtp.Mpl.acceptable ~now_ms:10_000 ~boot_ms:0 ~mpl_ms:5_000
       ~skew_allowance_ms:2_000 ~timestamp_ms:13_000)

let mpl_zero_always_ok () =
  check_bool "invalid timestamp ignored" true
    (Vmtp.Mpl.acceptable ~now_ms:10_000 ~boot_ms:0 ~mpl_ms:1 ~skew_allowance_ms:0
       ~timestamp_ms:0)

let mpl_wraparound () =
  (* near the 2^32 wrap: now just past 0, timestamp just before the wrap *)
  let near_wrap = (1 lsl 32) - 500 in
  check_bool "wrap-aware age" true
    (Vmtp.Mpl.age_ms ~now_ms:100 ~timestamp_ms:near_wrap = 600)

(* End-to-end *)

let props = G.default_props

let stack ?(n_routers = 2) () =
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
  Array.iter (fun r -> ignore (Sirpent.Router.create world ~node:r ())) routers;
  let host1 = Sirpent.Host.create world ~node:h1 in
  let host2 = Sirpent.Host.create world ~node:h2 in
  let metric (_ : G.link) = 1.0 in
  let route =
    Sirpent.Route.of_hops g ~src:h1
      (Option.get (G.shortest_path g ~metric ~src:h1 ~dst:h2))
  in
  (g, engine, world, host1, host2, route)

let transaction_completes () =
  let _, engine, _, host1, host2, route = stack () in
  let client = Vmtp.Entity.create host1 ~id:1L in
  let server = Vmtp.Entity.create host2 ~id:2L in
  Vmtp.Entity.set_request_handler server (fun _ ~data ~reply ->
      check_int "request size" 5000 (Bytes.length data);
      reply (Bytes.of_string "done"));
  let result = ref None in
  Vmtp.Entity.call client ~server:2L ~routes:[ route ] ~data:(Bytes.make 5000 'q')
    ~on_reply:(fun data ~rtt ->
      result := Some (Bytes.to_string data);
      check_bool "rtt measured" true (rtt > 0))
    ~on_fail:(fun r -> Alcotest.fail r)
    ();
  Sim.Engine.run ~until:(Sim.Time.s 2) engine;
  Alcotest.(check (option string)) "reply" (Some "done") !result;
  check_bool "rtt estimate kept" true (Vmtp.Entity.rtt_estimate client <> None);
  check_int "completed" 1 (Vmtp.Entity.stats client).Vmtp.Entity.calls_completed

let empty_message_works () =
  let _, engine, _, host1, host2, route = stack () in
  let client = Vmtp.Entity.create host1 ~id:1L in
  let server = Vmtp.Entity.create host2 ~id:2L in
  Vmtp.Entity.set_request_handler server (fun _ ~data ~reply ->
      check_int "empty" 0 (Bytes.length data);
      reply Bytes.empty);
  let ok = ref false in
  Vmtp.Entity.call client ~server:2L ~routes:[ route ] ~data:Bytes.empty
    ~on_reply:(fun _ ~rtt:_ -> ok := true)
    ~on_fail:(fun r -> Alcotest.fail r)
    ();
  Sim.Engine.run ~until:(Sim.Time.s 2) engine;
  check_bool "empty transaction" true !ok

let oversized_message_rejected () =
  let _, _, _, host1, _, route = stack () in
  let client = Vmtp.Entity.create host1 ~id:1L in
  Alcotest.check_raises "33 segments"
    (Invalid_argument "Vmtp: message too large for one group") (fun () ->
      Vmtp.Entity.call client ~server:2L ~routes:[ route ]
        ~data:(Bytes.make (33 * 1024) 'z')
        ~on_reply:(fun _ ~rtt:_ -> ())
        ~on_fail:(fun _ -> ())
        ())

let selective_retransmission_repairs_loss () =
  (* Corrupt ~1 in 15 packets on the first link: transport must still
     deliver, using retransmissions. *)
  let _, engine, world, host1, host2, route = stack () in
  W.set_bit_error_rate world ~link_id:0 1e-5;
  let client = Vmtp.Entity.create host1 ~id:1L in
  let server = Vmtp.Entity.create host2 ~id:2L in
  Vmtp.Entity.set_request_handler server (fun _ ~data ~reply ->
      reply (Bytes.make (Bytes.length data) 'r'));
  let completed = ref 0 in
  for _ = 1 to 10 do
    Vmtp.Entity.call client ~server:2L ~routes:[ route ] ~data:(Bytes.make 8000 'm')
      ~on_reply:(fun _ ~rtt:_ -> incr completed)
      ~on_fail:(fun r -> Alcotest.fail r)
      ()
  done;
  Sim.Engine.run ~until:(Sim.Time.s 30) engine;
  check_int "all complete despite corruption" 10 !completed;
  let cs = Vmtp.Entity.stats client and ss = Vmtp.Entity.stats server in
  check_bool "someone retransmitted or rejected" true
    (cs.Vmtp.Entity.retransmits + ss.Vmtp.Entity.retransmits > 0
    || cs.Vmtp.Entity.rejected_checksum + ss.Vmtp.Entity.rejected_checksum > 0)

let misdelivery_rejected_by_entity_id () =
  let _, engine, _, host1, host2, route = stack () in
  let client = Vmtp.Entity.create host1 ~id:1L in
  let server = Vmtp.Entity.create host2 ~id:2L in
  Vmtp.Entity.set_request_handler server (fun _ ~data:_ ~reply -> reply Bytes.empty);
  let failed = ref false in
  (* wrong entity id: packets arrive at host2 but the entity must reject *)
  Vmtp.Entity.call client ~server:999L ~routes:[ route ] ~data:(Bytes.of_string "x")
    ~on_reply:(fun _ ~rtt:_ -> Alcotest.fail "must not reply")
    ~on_fail:(fun _ -> failed := true)
    ();
  Sim.Engine.run ~until:(Sim.Time.s 10) engine;
  check_bool "call failed" true !failed;
  check_bool "server rejected by entity id" true
    ((Vmtp.Entity.stats server).Vmtp.Entity.rejected_entity > 0)

let stale_packets_rejected_by_mpl () =
  (* Clock-skewed client sends packets that appear ancient to the server. *)
  let _, engine, _, host1, host2, route = stack () in
  let config = { Vmtp.Entity.default_config with Vmtp.Entity.clock_skew_ms = -120_000 } in
  let client = Vmtp.Entity.create ~config host1 ~id:1L in
  let server = Vmtp.Entity.create host2 ~id:2L in
  Vmtp.Entity.set_request_handler server (fun _ ~data:_ ~reply -> reply Bytes.empty);
  let failed = ref false in
  Vmtp.Entity.call client ~server:2L ~routes:[ route ] ~data:(Bytes.of_string "old")
    ~on_reply:(fun _ ~rtt:_ -> Alcotest.fail "stale accepted")
    ~on_fail:(fun _ -> failed := true)
    ();
  Sim.Engine.run ~until:(Sim.Time.s 10) engine;
  check_bool "failed" true !failed;
  check_bool "server counted old packets" true
    ((Vmtp.Entity.stats server).Vmtp.Entity.rejected_old > 0)

let duplicate_request_replays_response () =
  (* Force the client to retransmit by making the response intermittently
     lossy... simplest deterministic path: call twice with same payload and
     check the duplicate counter stays zero, then directly re-send by a
     second call. Here we instead kill the first response with corruption
     on the reverse direction only: not directly supported, so we verify
     the hold-replay machinery via two transactions and the duplicate
     counter remains 0 (sanity), and trust the loss test above to exercise
     retransmission paths. *)
  let _, engine, _, host1, host2, route = stack () in
  let client = Vmtp.Entity.create host1 ~id:1L in
  let server = Vmtp.Entity.create host2 ~id:2L in
  Vmtp.Entity.set_request_handler server (fun _ ~data:_ ~reply ->
      reply (Bytes.of_string "resp"));
  let replies = ref 0 in
  for _ = 1 to 2 do
    Vmtp.Entity.call client ~server:2L ~routes:[ route ] ~data:(Bytes.of_string "q")
      ~on_reply:(fun _ ~rtt:_ -> incr replies)
      ~on_fail:(fun r -> Alcotest.fail r)
      ()
  done;
  Sim.Engine.run ~until:(Sim.Time.s 2) engine;
  check_int "distinct transactions both answered" 2 !replies;
  check_int "no spurious duplicates" 0
    (Vmtp.Entity.stats server).Vmtp.Entity.duplicate_requests

(* A duplicate request extends the server's hold on its response; with
   the completion ack lost, the response still goes 5 s after the
   duplicate. The first response dies on the client's failed access
   link, the client's retransmission (at its 100 ms RTO, the link back
   up) is the duplicate, and the server's access link fails while the
   completion ack is on its way. *)
let held_response_expires_after_extension () =
  let g, engine, world, host1, host2, route = stack () in
  let link_of node = snd (List.hd (G.ports g node)) in
  let client_link = link_of (Sirpent.Host.node host1)
  and server_link = link_of (Sirpent.Host.node host2) in
  let client = Vmtp.Entity.create host1 ~id:1L in
  let server = Vmtp.Entity.create host2 ~id:2L in
  Vmtp.Entity.set_request_handler server (fun _ ~data:_ ~reply ->
      reply (Bytes.of_string "resp");
      W.fail_link world client_link);
  Sim.Engine.schedule_at engine ~time:(Sim.Time.ms 50) (fun () ->
      W.restore_link world client_link);
  let replied = ref false in
  Vmtp.Entity.call client ~server:2L ~routes:[ route ] ~data:(Bytes.of_string "q")
    ~on_reply:(fun _ ~rtt:_ ->
      replied := true;
      W.fail_link world server_link)
    ~on_fail:(fun r -> Alcotest.fail r)
    ();
  Sim.Engine.run ~until:(Sim.Time.ms 5050) engine;
  check_bool "replayed response reached the client" true !replied;
  check_int "one duplicate" 1 (Vmtp.Entity.stats server).Vmtp.Entity.duplicate_requests;
  check_int "held past the first deadline" 1 (Vmtp.Entity.held_responses server);
  Sim.Engine.run ~until:(Sim.Time.s 6) engine;
  check_int "released 5 s after the duplicate" 0 (Vmtp.Entity.held_responses server)

(* Every packet an entity counts as sent is one frame on its host's
   port: after a call whose response is a packet group, and again after
   each way a server sends a response packet twice. Damaging one
   response packet in flight makes the client ask again: a client that
   has measured a short RTT times out and repeats its request, so the
   server replays the held response; a fresh client, on the initial RTO,
   nacks the gap first, so the server retransmits just that packet. *)
let packets_sent_match_frames () =
  let _, engine, world, host1, host2, route = stack () in
  (* damage the next [!damage] frames that carry a run of response
     bytes, inside the run *)
  let damage = ref 0 in
  W.set_corruptor world (fun ~link:_ b ->
      let rec run_end i run =
        if i >= Bytes.length b then None
        else
          let run = if Bytes.get b i = 'R' then run + 1 else 0 in
          if run = 64 then Some i else run_end (i + 1) run
      in
      match run_end 0 0 with
      | Some i when !damage > 0 ->
        decr damage;
        let b = Bytes.copy b in
        Bytes.set b i 'x';
        Some b
      | Some _ | None -> None);
  let server = Vmtp.Entity.create host2 ~id:2L in
  Vmtp.Entity.set_request_handler server (fun _ ~data:_ ~reply ->
      reply (Bytes.make 3000 'R'));
  let replies = ref 0 in
  let call client ~damaged =
    damage := damaged;
    Vmtp.Entity.call client ~server:2L ~routes:[ route ] ~data:(Bytes.of_string "q")
      ~on_reply:(fun data ~rtt:_ ->
        incr replies;
        check_int "whole response" 3000 (Bytes.length data))
      ~on_fail:(fun r -> Alcotest.fail r)
      ();
    Sim.Engine.run ~until:(Sim.Engine.now engine + Sim.Time.s 1) engine;
    check_int "damage spent" 0 !damage
  in
  let check_counts stage clients =
    let frames host =
      (W.port_stats world ~node:(Sirpent.Host.node host) ~port:1).W.sent_frames
    in
    let sent e = (Vmtp.Entity.stats e).Vmtp.Entity.packets_sent in
    check_int (stage ^ ": clients") (frames host1)
      (List.fold_left (fun n c -> n + sent c) 0 clients);
    check_int (stage ^ ": server") (frames host2) (sent server)
  in
  let server_stat f = f (Vmtp.Entity.stats server) in
  let measured = Vmtp.Entity.create host1 ~id:1L in
  call measured ~damaged:0;
  check_int "answered" 1 !replies;
  check_counts "multi-packet response" [ measured ];
  call measured ~damaged:1;
  check_int "answered after a loss" 2 !replies;
  check_int "held response replayed" 1 (server_stat (fun s -> s.Vmtp.Entity.duplicate_requests));
  check_counts "replayed response" [ measured ];
  (* a second entity takes over the client host's deliveries *)
  let fresh = Vmtp.Entity.create host1 ~id:3L in
  call fresh ~damaged:1;
  check_int "answered after a nack" 3 !replies;
  check_int "one packet retransmitted" 1 (server_stat (fun s -> s.Vmtp.Entity.retransmits));
  check_counts "retransmitted packet" [ measured; fresh ]

(* A message is the sender's to reuse as soon as [call] or [reply]
   returns: the client overwrites its request bytes right after [call],
   the handler its response bytes right after [reply]. One call on a
   fresh client measures the RTT; on the next, one request packet and
   one response packet are cut on their way, so the client's short RTO
   resends the request group and the server replays the held response.
   Every transport packet seen on a link (acks aside) is byte-identical
   to its first transmission, and the handler and [on_reply] see the
   bytes as they were sent. *)
let resent_packets_are_identical () =
  let g, engine, world, host1, host2, route = stack () in
  let access host = snd (List.hd (G.ports g (Sirpent.Host.node host))) in
  let sender_link = function
    | Wf.Request -> access host1
    | Wf.Response | Wf.Ack -> access host2
  in
  let pattern n salt = Bytes.init n (fun i -> Char.chr (((i * 7) + salt) land 0xFF)) in
  let request_of n = pattern n 1 and response_of n = pattern n 3 in
  let first = Hashtbl.create 64 in
  let resent = ref 0 and changed = ref 0 in
  let cut = ref [] in
  W.set_corruptor world (fun ~link b ->
      match Viper.Packet.parse b with
      | Ok packet when Wf.valid packet.Viper.Packet.data ->
        let p = packet.Viper.Packet.data in
        let kind = Wf.kind p in
        if kind = Wf.Ack then None
        else if List.mem (kind, Wf.index p) !cut then begin
          cut := List.filter (( <> ) (kind, Wf.index p)) !cut;
          Some (Bytes.sub b 0 1)
        end
        else begin
          let key = (kind, Wf.transaction p, Wf.index p) in
          (match Hashtbl.find_opt first key with
          | None -> Hashtbl.add first key (Bytes.copy p)
          | Some sent ->
            if link = sender_link kind then incr resent;
            if not (Bytes.equal sent p) then incr changed);
          None
        end
      | Ok _ | Error _ -> None);
  let client = Vmtp.Entity.create host1 ~id:1L in
  let server = Vmtp.Entity.create host2 ~id:2L in
  let handled = ref [] in
  Vmtp.Entity.set_request_handler server (fun _ ~data ~reply ->
      handled := Bytes.copy data :: !handled;
      let response = response_of (Bytes.length data) in
      reply response;
      Bytes.fill response 0 (Bytes.length response) 'X');
  let call ~cuts n =
    cut := cuts;
    handled := [];
    let request = request_of n and replies = ref [] in
    Vmtp.Entity.call client ~server:2L ~routes:[ route ] ~data:request
      ~on_reply:(fun data ~rtt:_ -> replies := Bytes.copy data :: !replies)
      ~on_fail:(fun r -> Alcotest.fail r)
      ();
    Bytes.fill request 0 n 'X';
    Sim.Engine.run ~until:(Sim.Engine.now engine + Sim.Time.s 1) engine;
    check_int "cuts spent" 0 (List.length !cut);
    check_bool "handler saw the request as sent" true
      (List.for_all (Bytes.equal (request_of n)) !handled && !handled <> []);
    check_bool "on_reply saw the response as sent" true (!replies = [ response_of n ])
  in
  call ~cuts:[] 3000;
  call ~cuts:[ (Wf.Request, 1); (Wf.Response, 2) ] 3000;
  check_bool "the client resent" true
    ((Vmtp.Entity.stats client).Vmtp.Entity.retransmits > 0);
  check_bool "the server replayed" true
    ((Vmtp.Entity.stats server).Vmtp.Entity.duplicate_requests > 0);
  check_bool "packets resent" true (!resent > 0);
  check_int "resent packets changed" 0 !changed

let failover_to_alternate_route () =
  (* Diamond: two disjoint paths. Fail the primary mid-call; transport
     switches to the alternate and completes. *)
  let g = G.create () in
  let h1 = G.add_node g G.Host and h2 = G.add_node g G.Host in
  let ra = G.add_node g G.Router and rb = G.add_node g G.Router in
  ignore (G.connect g h1 ra props);
  ignore (G.connect g h1 rb props);
  let la = G.connect g ra h2 props in
  ignore la;
  ignore (G.connect g rb h2 props);
  let engine = Sim.Engine.create () in
  let world = W.create engine g in
  ignore (Sirpent.Router.create world ~node:ra ());
  ignore (Sirpent.Router.create world ~node:rb ());
  let host1 = Sirpent.Host.create world ~node:h1 in
  let host2 = Sirpent.Host.create world ~node:h2 in
  let metric (_ : G.link) = 1.0 in
  let paths = G.k_shortest_paths g ~metric ~src:h1 ~dst:h2 ~k:2 in
  check_int "two disjoint paths" 2 (List.length paths);
  let routes = List.map (fun p -> Sirpent.Route.of_hops g ~src:h1 p) paths in
  let client = Vmtp.Entity.create host1 ~id:1L in
  let server = Vmtp.Entity.create host2 ~id:2L in
  Vmtp.Entity.set_request_handler server (fun _ ~data:_ ~reply ->
      reply (Bytes.of_string "ok"));
  (* fail the path used by route 1 (via ra) immediately *)
  let first_route_nodes = G.route_nodes g ~src:h1 (List.hd paths) in
  let primary_router = List.nth first_route_nodes 1 in
  (match G.ports g primary_router with
  | (_, link) :: _ -> W.fail_link world link
  | [] -> Alcotest.fail "ports");
  let switched = ref false and ok = ref false in
  Vmtp.Entity.set_route_switch_hook client (fun ~failed:_ ~route_index:_ ->
      switched := true);
  Vmtp.Entity.call client ~server:2L ~routes ~data:(Bytes.of_string "failover")
    ~on_reply:(fun _ ~rtt:_ -> ok := true)
    ~on_fail:(fun r -> Alcotest.fail r)
    ();
  Sim.Engine.run ~until:(Sim.Time.s 10) engine;
  check_bool "switched route" true !switched;
  check_bool "completed on alternate" true !ok;
  check_int "route switches counted" 1
    (Vmtp.Entity.stats client).Vmtp.Entity.route_switches

(* The server answers over route 1; right after, the link from route 1's
   router to the client fails, so the response is lost on its way
   back. The client
   retransmits, exhausts route 1 and fails over to route 2. The server
   holds the response and replays it for the duplicate: it must go back
   over the duplicate's own trailer (route 2), not the first request's
   (route 1, now dead). *)
(* [background] is a list of (delay, via rb, size): packets a third
   host sends the server through the two routers while the transaction
   runs, so the held response is replayed over a trailer that later
   traffic has passed by. *)
let replay_scenario ~background =
  let g = G.create () in
  let h1 = G.add_node g G.Host and h2 = G.add_node g G.Host in
  let ra = G.add_node g G.Router and rb = G.add_node g G.Router in
  ignore (G.connect g h1 ra props);
  ignore (G.connect g h1 rb props);
  ignore (G.connect g ra h2 props);
  ignore (G.connect g rb h2 props);
  let h3 = G.add_node g G.Host in
  let h3_ra, _ = G.connect g h3 ra props and h3_rb, _ = G.connect g h3 rb props in
  let engine = Sim.Engine.create () in
  let world = W.create engine g in
  ignore (Sirpent.Router.create world ~node:ra ());
  ignore (Sirpent.Router.create world ~node:rb ());
  let host1 = Sirpent.Host.create world ~node:h1 in
  let host2 = Sirpent.Host.create world ~node:h2 in
  let host3 = Sirpent.Host.create world ~node:h3 in
  let metric (_ : G.link) = 1.0 in
  let paths = G.k_shortest_paths g ~metric ~src:h1 ~dst:h2 ~k:2 in
  check_int "two disjoint paths" 2 (List.length paths);
  let routes = List.map (fun p -> Sirpent.Route.of_hops g ~src:h1 p) paths in
  let first_router = List.nth (G.route_nodes g ~src:h1 (List.hd paths)) 1 in
  let _, return_link =
    List.find
      (fun (_, l) -> fst (G.peer l first_router) = h1)
      (G.ports g first_router)
  in
  let client = Vmtp.Entity.create host1 ~id:1L in
  let server = Vmtp.Entity.create host2 ~id:2L in
  let handled = ref 0 in
  Vmtp.Entity.set_request_handler server (fun _ ~data:_ ~reply ->
      incr handled;
      reply (Bytes.of_string "ok");
      W.fail_link world return_link);
  let ok = ref false in
  Vmtp.Entity.call client ~server:2L ~routes ~data:(Bytes.of_string "replay")
    ~on_reply:(fun _ ~rtt:_ -> ok := true)
    ~on_fail:(fun r -> Alcotest.fail r)
    ();
  List.iter
    (fun (delay, via_rb, size) ->
      let router, first_port = if via_rb then (rb, h3_rb) else (ra, h3_ra) in
      let to_h2 =
        fst (List.find (fun (_, l) -> fst (G.peer l router) = h2) (G.ports g router))
      in
      let route =
        {
          Sirpent.Route.first_port;
          segments = [ Viper.Segment.make ~port:to_h2 (); Viper.Segment.make ~port:0 () ];
        }
      in
      ignore
        (Sim.Engine.schedule engine ~delay (fun () ->
             ignore (Sirpent.Host.send host3 ~route ~data:(Bytes.make size 'b') ()))))
    background;
  Sim.Engine.run ~until:(Sim.Time.s 10) engine;
  check_int "handler ran once" 1 !handled;
  check_int "failed over once" 1
    (Vmtp.Entity.stats client).Vmtp.Entity.route_switches;
  check_bool "duplicate replayed" true
    ((Vmtp.Entity.stats server).Vmtp.Entity.duplicate_requests > 0);
  check_bool "completed over route 2" true !ok

let replay_follows_duplicate_route () = replay_scenario ~background:[]

(* The held response survives later traffic: whatever passes through
   the routers and reaches the server before the duplicate, the replay
   rides the duplicate's own trailer home. *)
let qcheck_held_response_survives =
  QCheck.Test.make ~name:"held response replays after later traffic" ~count:20
    QCheck.(
      make
        Gen.(
          list_size (int_range 1 60)
            (triple (int_range 0 (Sim.Time.ms 40)) bool (int_range 0 300))))
    (fun background ->
      replay_scenario ~background;
      true)

(* Two clients whose ids agree in the low 31 bits share the server's
   table key for their first transaction. Their requests reassemble side
   by side, their responses are held side by side, and each completion
   ack releases its own. The first client starts first and sends the
   shorter request, so its request leaves the reassembly table while the
   second's, added later, is still there; the server answers the second
   first, so that response is released while the first's, held later,
   is still there. A table that dropped the wrong entry would lose a
   request packet (resent) or keep a response (still held). *)
let clients_sharing_a_key () =
  let g = G.create () in
  let h1 = G.add_node g G.Host and h3 = G.add_node g G.Host and h2 = G.add_node g G.Host in
  let r = G.add_node g G.Router in
  ignore (G.connect g h1 r props);
  ignore (G.connect g h3 r props);
  ignore (G.connect g r h2 props);
  let engine = Sim.Engine.create () in
  let world = W.create engine g in
  ignore (Sirpent.Router.create world ~node:r ());
  let host1 = Sirpent.Host.create world ~node:h1 in
  let host3 = Sirpent.Host.create world ~node:h3 in
  let host2 = Sirpent.Host.create world ~node:h2 in
  let metric (_ : G.link) = 1.0 in
  let route src =
    Sirpent.Route.of_hops g ~src (Option.get (G.shortest_path g ~metric ~src ~dst:h2))
  in
  let server = Vmtp.Entity.create host2 ~id:2L in
  let handled = ref [] and first = ref None in
  Vmtp.Entity.set_request_handler server (fun _ ~data ~reply ->
      handled := Bytes.get data 0 :: !handled;
      let answer () = reply (Bytes.map Char.uppercase_ascii data) in
      match !first with
      | None -> first := Some answer
      | Some answer_first ->
        answer ();
        answer_first ());
  let replies = ref [] in
  let clients =
    List.map
      (fun (host, id, c, size, start) ->
        let client = Vmtp.Entity.create host ~id in
        Sim.Engine.schedule_at engine ~time:start (fun () ->
          Vmtp.Entity.call client ~server:2L
            ~routes:[ route (Sirpent.Host.node host) ]
            ~data:(Bytes.make size c)
            ~on_reply:(fun data ~rtt:_ -> replies := (c, Bytes.to_string data) :: !replies)
            ~on_fail:(fun r -> Alcotest.fail r)
            ());
        client)
      [ (host1, 1L, 'a', 2000, 0); (host3, 0x7_8000_0001L, 'b', 5000, Sim.Time.us 100) ]
  in
  Sim.Engine.run ~until:(Sim.Time.s 2) engine;
  let retransmits e = (Vmtp.Entity.stats e).Vmtp.Entity.retransmits in
  check_int "nothing resent" 0 (List.fold_left (fun n e -> n + retransmits e) 0 (server :: clients));
  Alcotest.(check (list char)) "each request handled once, shorter first" [ 'a'; 'b' ]
    (List.rev !handled);
  Alcotest.(check (list (pair char string)))
    "each client its own reply"
    [ ('a', String.make 2000 'A'); ('b', String.make 5000 'B') ]
    (List.sort compare !replies);
  check_int "both held responses released" 0 (Vmtp.Entity.held_responses server)

(* Reassembly keeps byte order: random request and response contents,
   each of a size that fills no packet, part of one, exactly one, one
   and a byte, part of four, or a whole group. One packet of each
   multi-packet group is lost once on its way, so selective
   retransmission fills the gap. *)
let message_sizes = [ 0; 1; 1023; 1024; 1025; (3 * 1024) + 7; 32 * 1024 ]

let qcheck_reassembly_order =
  QCheck.Test.make ~name:"reassembly keeps byte order" ~count:40
    (QCheck.make
       QCheck.Gen.(
         let* request = bytes_size (oneofl message_sizes)
         and* response = bytes_size (oneofl message_sizes) in
         let* lose = pair nat nat in
         return (request, response, lose)))
    (fun (request, response, (lose_request, lose_response)) ->
      let _, engine, world, host1, host2, route = stack () in
      let group n = max 1 ((n + 1023) / 1024) in
      let to_lose =
        ref
          (List.filter_map
             (fun (kind, message, pick) ->
               let n = group (Bytes.length message) in
               if n > 1 then Some (kind, pick mod n) else None)
             [ (Wf.Request, request, lose_request); (Wf.Response, response, lose_response) ])
      in
      let losses = List.length !to_lose in
      (* a frame cut to one byte is a malformed drop at the next node *)
      W.set_corruptor world (fun ~link:_ b ->
          match Viper.Packet.parse b with
          | Ok packet when Wf.valid packet.Viper.Packet.data ->
            let p = packet.Viper.Packet.data in
            let target = (Wf.kind p, Wf.index p) in
            if List.mem target !to_lose then begin
              to_lose := List.filter (( <> ) target) !to_lose;
              Some (Bytes.sub b 0 1)
            end
            else None
          | Ok _ | Error _ -> None);
      let client = Vmtp.Entity.create host1 ~id:1L in
      let server = Vmtp.Entity.create host2 ~id:2L in
      let seen_request = ref [] and seen_response = ref [] in
      Vmtp.Entity.set_request_handler server (fun _ ~data ~reply ->
          seen_request := Bytes.copy data :: !seen_request;
          reply response);
      Vmtp.Entity.call client ~server:2L ~routes:[ route ] ~data:request
        ~on_reply:(fun data ~rtt:_ -> seen_response := data :: !seen_response)
        ~on_fail:(fun r -> Alcotest.fail r)
        ();
      Sim.Engine.run ~until:(Sim.Time.s 5) engine;
      let retransmits e = (Vmtp.Entity.stats e).Vmtp.Entity.retransmits in
      !to_lose = []
      && retransmits client + retransmits server >= losses
      && !seen_request = [ request ]
      && !seen_response = [ response ])

let pacing_spreads_packets () =
  (* With pacing at 1 Mb/s, a 4-packet group takes >= 3 * 8ms to emit. *)
  let _, engine, _, host1, host2, route = stack () in
  let config = { Vmtp.Entity.default_config with Vmtp.Entity.pace_bps = 1_000_000 } in
  let client = Vmtp.Entity.create ~config host1 ~id:1L in
  let server = Vmtp.Entity.create host2 ~id:2L in
  Vmtp.Entity.set_request_handler server (fun _ ~data:_ ~reply -> reply Bytes.empty);
  let done_at = ref 0 in
  Vmtp.Entity.call client ~server:2L ~routes:[ route ] ~data:(Bytes.make 4096 'p')
    ~on_reply:(fun _ ~rtt:_ -> done_at := Sim.Engine.now engine)
    ~on_fail:(fun r -> Alcotest.fail r)
    ();
  Sim.Engine.run ~until:(Sim.Time.s 5) engine;
  check_bool "paced duration" true (!done_at >= 3 * Sim.Time.ms 8)

(* Playout buffer (Â§8) *)

let playout_restores_spacing () =
  let engine = Sim.Engine.create () in
  let deliveries = ref [] in
  let p =
    Vmtp.Playout.create engine ~target_delay:(Sim.Time.ms 10)
      ~deliver:(fun data ->
        deliveries := (Sim.Engine.now engine, Bytes.get data 0) :: !deliveries)
  in
  (* Frames created every 5 ms but arriving with erratic jitter. *)
  let arrivals = [ (0, 2); (5, 9); (10, 11); (15, 16); (20, 28) ] in
  List.iter
    (fun (created_ms, arrive_ms) ->
      Sim.Engine.schedule_at engine ~time:(Sim.Time.ms arrive_ms) (fun () ->
          ignore
            (Vmtp.Playout.offer p ~timestamp_ms:created_ms
               ~data:(Bytes.make 1 (Char.chr (Char.code '0' + created_ms / 5))))))
    arrivals;
  Sim.Engine.run engine;
  let times = List.rev_map fst !deliveries in
  Alcotest.(check (list int)) "exact 5 ms spacing restored"
    [ Sim.Time.ms 10; Sim.Time.ms 15; Sim.Time.ms 20; Sim.Time.ms 25; Sim.Time.ms 30 ]
    times;
  check_int "all delivered" 5 (Vmtp.Playout.delivered p);
  check_int "none late" 0 (Vmtp.Playout.late p)

let playout_drops_late () =
  let engine = Sim.Engine.create () in
  let p =
    Vmtp.Playout.create engine ~target_delay:(Sim.Time.ms 10)
      ~deliver:(fun _ -> ())
  in
  (* created at 0, arrives at 25 ms: playout instant (10 ms) already past *)
  Sim.Engine.schedule_at engine ~time:(Sim.Time.ms 25) (fun () ->
      match Vmtp.Playout.offer p ~timestamp_ms:0 ~data:Bytes.empty with
      | `Late -> ()
      | `Scheduled -> Alcotest.fail "must be late");
  Sim.Engine.run engine;
  check_int "late counted" 1 (Vmtp.Playout.late p);
  check_int "nothing delivered" 0 (Vmtp.Playout.delivered p)

let playout_headroom () =
  let engine = Sim.Engine.create () in
  let p =
    Vmtp.Playout.create engine ~target_delay:(Sim.Time.ms 10) ~deliver:(fun _ -> ())
  in
  (* at t=0: a packet created "now" has the full budget left *)
  check_int "full budget" (Sim.Time.ms 10) (Vmtp.Playout.headroom p ~timestamp_ms:0)

let () =
  Alcotest.run "vmtp"
    [
      ( "wire format",
        [
          Alcotest.test_case "roundtrip" `Quick wf_roundtrip;
          Alcotest.test_case "corruption detected" `Quick wf_detects_corruption;
          Alcotest.test_case "kinds" `Quick wf_kinds_roundtrip;
          Alcotest.test_case "rejects bad sizes" `Quick wf_rejects_bad_sizes;
          Alcotest.test_case "masks" `Quick mask_operations;
        ] );
      ( "mpl",
        [
          Alcotest.test_case "accepts fresh" `Quick mpl_accepts_fresh;
          Alcotest.test_case "rejects old" `Quick mpl_rejects_old;
          Alcotest.test_case "rejects pre-boot" `Quick mpl_rejects_pre_boot;
          Alcotest.test_case "skew allowance" `Quick mpl_accepts_small_skew;
          Alcotest.test_case "zero timestamp" `Quick mpl_zero_always_ok;
          Alcotest.test_case "wraparound" `Quick mpl_wraparound;
        ] );
      ( "transactions",
        [
          Alcotest.test_case "completes" `Quick transaction_completes;
          Alcotest.test_case "empty message" `Quick empty_message_works;
          Alcotest.test_case "oversized rejected" `Quick oversized_message_rejected;
          Alcotest.test_case "selective retransmission" `Slow
            selective_retransmission_repairs_loss;
          Alcotest.test_case "misdelivery rejected" `Quick misdelivery_rejected_by_entity_id;
          Alcotest.test_case "MPL rejects stale" `Quick stale_packets_rejected_by_mpl;
          Alcotest.test_case "duplicates handled" `Quick duplicate_request_replays_response;
          Alcotest.test_case "held response expires after extension" `Quick
            held_response_expires_after_extension;
          Alcotest.test_case "failover to alternate" `Quick failover_to_alternate_route;
          Alcotest.test_case "pacing spreads packets" `Quick pacing_spreads_packets;
          Alcotest.test_case "packets sent match frames" `Quick packets_sent_match_frames;
          Alcotest.test_case "resent packets are identical" `Quick
            resent_packets_are_identical;
          Alcotest.test_case "replay follows duplicate's route" `Quick
            replay_follows_duplicate_route;
          Alcotest.test_case "clients sharing a table key" `Quick clients_sharing_a_key;
        ] );
      ( "playout",
        [
          Alcotest.test_case "restores spacing" `Quick playout_restores_spacing;
          Alcotest.test_case "drops late" `Quick playout_drops_late;
          Alcotest.test_case "headroom" `Quick playout_headroom;
        ] );
      ( "properties",
        List.map Seeded.to_alcotest
          [
            qcheck_wf_roundtrip;
            qcheck_checksum_references;
            qcheck_encode_into_offsets;
            qcheck_reassembly_order;
            qcheck_held_response_survives;
          ] );
    ]
