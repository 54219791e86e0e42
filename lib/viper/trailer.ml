type entry = Hop of Segment.t | Truncated | Branch

let marker = 0xFFFF
let branch_marker = 0xFFFE
(* the largest legal entry segment: the two lengths above it are the
   markers' *)
let max_entry = 0xFFFD

(* Integrity bytes: XOR over the protected bytes, seeded so an all-zero
   run does not self-validate. A single flipped bit anywhere in a hop
   entry's segment — or in the total field — is guaranteed to be caught
   (XOR is linear), which is what lets a receiver reject a damaged trailer
   instead of building a bogus return route from it. The total gets its
   own check byte so a truncation that cleanly severs the trailer cannot
   leave trailing payload bytes posing as an (empty) trailer. *)
let cksum_seed = 0x5A

let cksum b = Bytes.fold_left (fun acc c -> acc lxor Char.code c) cksum_seed b

let cksum_sub b ~off ~len =
  let acc = ref cksum_seed in
  for i = off to off + len - 1 do
    acc := !acc lxor Char.code (Bytes.unsafe_get b i)
  done;
  !acc

let check_of_total total = cksum_seed lxor (total lsr 8) lxor (total land 0xFF)

let empty =
  let b = Bytes.make 3 '\000' in
  Bytes.set b 0 (Char.chr (check_of_total 0));
  b

(* The window [b.[lo] .. b.[hi - 1]] holds the packet: every read is
   bounded by it, so a window reads exactly as a copy of it would. *)
let read_u16_in b ~lo ~hi off =
  if off < lo || off + 2 > hi then invalid_arg "Trailer: malformed (short)";
  Bytes.get_uint16_be b off

let total_in b ~lo ~hi =
  let total = read_u16_in b ~lo ~hi (hi - 2) in
  if hi - lo < 3 || Char.code (Bytes.get b (hi - 3)) <> check_of_total total then
    invalid_arg "Trailer: total checksum";
  total

let total_of b = total_in b ~lo:0 ~hi:(Bytes.length b)

let size_in b ~off ~len =
  let sz = total_in b ~lo:off ~hi:(off + len) + 3 in
  if sz > len then invalid_arg "Trailer: total exceeds packet";
  sz

let size packet = size_in packet ~off:0 ~len:(Bytes.length packet)

(* Walk the trailer ending the window backwards through its trailing
   length fields, checking each entry in place and folding [hop] (over a
   checked segment's bytes) or [mark] over them in appended order. *)
let rec walk b ~lo ~hi ~start ~hop ~mark pos acc =
  if pos = start then acc
  else begin
    let len = read_u16_in b ~lo ~hi (pos - 2) in
    if len = marker then walk b ~lo ~hi ~start ~hop ~mark (pos - 2) (mark Truncated acc)
    else if len = branch_marker then
      walk b ~lo ~hi ~start ~hop ~mark (pos - 2) (mark Branch acc)
    else begin
      let seg_start = pos - 3 - len in
      if seg_start < start then invalid_arg "Trailer: entry exceeds trailer";
      if len < Segment.fixed_size then invalid_arg "Trailer: entry too small";
      let check = Char.code (Bytes.get b (pos - 3)) in
      if check <> cksum_sub b ~off:seg_start ~len then
        invalid_arg "Trailer: entry checksum";
      walk b ~lo ~hi ~start ~hop ~mark seg_start (hop b seg_start len acc)
    end
  end

let fold_in b ~off ~len ~hop ~mark acc =
  let hi = off + len in
  let stop = hi - 3 in
  let start = stop - total_in b ~lo:off ~hi in
  if start < off then invalid_arg "Trailer: total exceeds packet";
  walk b ~lo:off ~hi ~start ~hop ~mark stop acc

let decode_hop b off len acc = Hop (Segment.decode_sub b ~off ~len) :: acc
let cons_mark entry acc = entry :: acc

(* Each entry is checked and decoded in place: only the segment handed
   out is allocated. *)
let entries_in b ~off ~len = fold_in b ~off ~len ~hop:decode_hop ~mark:cons_mark []
let entries packet = entries_in packet ~off:0 ~len:(Bytes.length packet)

(* [Segment.decode_sub]'s verdict without the record: the entry must be
   exactly one segment. *)
let check_hop b off len () =
  if Segment.extent_to b ~off ~stop:(off + len) <> len then
    invalid_arg "Segment.decode: trailing bytes"

let skip_mark _ () = ()
let verify_in b ~off ~len = fold_in b ~off ~len ~hop:check_hop ~mark:skip_mark ()

let skip_hop _ _ _ acc = acc
let note_truncated e found =
  found || match e with Truncated -> true | Hop _ | Branch -> false

let note_branch e found = found || match e with Branch -> true | Hop _ | Truncated -> false
let truncated_in b ~off ~len = fold_in b ~off ~len ~hop:skip_hop ~mark:note_truncated false
let branched_in b ~off ~len = fold_in b ~off ~len ~hop:skip_hop ~mark:note_branch false

let parse_entries packet =
  match entries packet with
  | es -> Ok es
  | exception (Wire.Buf.Underflow | Wire.Buf.Overflow) -> Error Segment.Truncated
  | exception Invalid_argument m -> Error (Segment.Malformed m)
  | exception Failure m -> Error (Segment.Malformed m)

let with_appended packet extra_entry_bytes =
  let old_total = total_of packet in
  let body = Bytes.length packet - 3 in
  let added = Bytes.length extra_entry_bytes in
  let new_total = old_total + added in
  if new_total > 0xFFFF then invalid_arg "Trailer: overflow";
  let out = Bytes.create (Bytes.length packet + added) in
  Bytes.blit packet 0 out 0 body;
  Bytes.blit extra_entry_bytes 0 out body added;
  Bytes.set out (body + added) (Char.chr (check_of_total new_total));
  Bytes.set_uint16_be out (body + added + 1) new_total;
  out

let append_hop packet seg =
  let seg_bytes = Segment.encode seg in
  let len = Bytes.length seg_bytes in
  if len > max_entry then invalid_arg "Trailer.append_hop: segment too large";
  let w = Wire.Buf.create_writer (len + 3) in
  Wire.Buf.put_bytes w seg_bytes;
  Wire.Buf.put_u8 w (cksum seg_bytes);
  Wire.Buf.put_u16 w len;
  with_appended packet (Wire.Buf.contents w)

(* The per-hop hot path fused: [append_hop_sub packet ~pos seg] is
   byte-identical to [append_hop (Bytes.sub packet pos (n - pos)) seg]
   but builds the output in ONE sized allocation with two blits, instead
   of materializing the stripped suffix first (the intermediate copy cost
   every router paid per hop). The segment is serialized straight into
   the output (no temporary encode). Error cases and their order mirror
   the unfused composition (oversized segments raise [Invalid_argument]
   rather than a writer overflow). *)
let append_hop_sub packet ~pos seg =
  let len = Segment.encoded_size seg in
  if len > max_entry then invalid_arg "Trailer.append_hop: segment too large";
  let n = Bytes.length packet in
  if pos < 0 || pos > n then invalid_arg "Trailer: malformed (short)";
  let sub_len = n - pos in
  (* total_of on the suffix, reading in place *)
  let old_total = total_in packet ~lo:pos ~hi:n in
  (* with_appended on the suffix, blitting straight from [packet] *)
  let body = sub_len - 3 in
  let added = len + 3 in
  let new_total = old_total + added in
  if new_total > 0xFFFF then invalid_arg "Trailer: overflow";
  let out = Bytes.create (sub_len + added) in
  Bytes.blit packet pos out 0 body;
  let w = Wire.Buf.writer_onto out ~off:body ~len in
  Segment.write w seg;
  Bytes.set out (body + len) (Char.chr (cksum_sub out ~off:body ~len));
  Bytes.set_uint16_be out (body + len + 1) len;
  Bytes.set out (body + added) (Char.chr (check_of_total new_total));
  Bytes.set_uint16_be out (body + added + 1) new_total;
  out

let append_truncation_marker packet =
  let w = Wire.Buf.create_writer 2 in
  Wire.Buf.put_u16 w marker;
  with_appended packet (Wire.Buf.contents w)

let append_branch_marker packet =
  let w = Wire.Buf.create_writer 2 in
  Wire.Buf.put_u16 w branch_marker;
  with_appended packet (Wire.Buf.contents w)

(* The failover hot path fused: byte-identical to
   [append_branch_marker (Bytes.cat route (Bytes.sub packet pos (n - pos)))]
   but built in one sized allocation with two blits — the route splice
   and the marker append each cost a full copy before. Checks mirror
   [append_branch_marker]'s [total_of] on the spliced result (the total
   lives in [packet]'s last 3 bytes either way). *)
let append_branch_marker_sub packet ~pos ~route =
  let n = Bytes.length packet in
  if pos < 0 || pos > n then invalid_arg "Trailer: malformed (short)";
  let rest_len = n - pos in
  let rlen = Bytes.length route in
  let old_total = total_in packet ~lo:pos ~hi:n in
  let new_total = old_total + 2 in
  if new_total > 0xFFFF then invalid_arg "Trailer: overflow";
  let body = rlen + rest_len - 3 in
  let out = Bytes.create (body + 5) in
  Bytes.blit route 0 out 0 rlen;
  Bytes.blit packet pos out rlen (rest_len - 3);
  Bytes.set_uint16_be out body branch_marker;
  Bytes.set out (body + 2) (Char.chr (check_of_total new_total));
  Bytes.set_uint16_be out (body + 3) new_total;
  out

(* The hop in one pass over a window: [append_hop_sub]'s checks in its
   order, then the remainder's body moved to [at] (nothing moves when
   the hop is in place), the return hop written straight from the
   stripped segment, and the new terminator. *)
let append_return_hop src ~off ~len ~pos ~port ~keep_token ~info dst ~at =
  let seg_len = Segment.return_hop_size src ~off ~port ~keep_token ~info in
  if seg_len > max_entry then invalid_arg "Trailer.append_hop: segment too large";
  if pos < 0 || pos > len then invalid_arg "Trailer: malformed (short)";
  let old_total = total_in src ~lo:(off + pos) ~hi:(off + len) in
  let body = len - pos - 3 in
  let added = seg_len + 3 in
  let new_total = old_total + added in
  if new_total > 0xFFFF then invalid_arg "Trailer: overflow";
  if not (dst == src && at = off + pos) then Bytes.blit src (off + pos) dst at body;
  let e = at + body in
  Segment.write_return_hop src ~off ~port ~keep_token ~info dst ~at:e;
  Bytes.set dst (e + seg_len) (Char.unsafe_chr (cksum_sub dst ~off:e ~len:seg_len));
  Bytes.set_uint16_be dst (e + seg_len + 1) seg_len;
  Bytes.set dst (e + added) (Char.unsafe_chr (check_of_total new_total));
  Bytes.set_uint16_be dst (e + added + 1) new_total;
  body + added + 3
