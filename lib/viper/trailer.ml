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

let read_u16_at b off =
  if off < 0 || off + 2 > Bytes.length b then
    invalid_arg "Trailer: malformed (short)";
  Bytes.get_uint16_be b off

let total_of b =
  let n = Bytes.length b in
  let total = read_u16_at b (n - 2) in
  if n < 3 || Char.code (Bytes.get b (n - 3)) <> check_of_total total then
    invalid_arg "Trailer: total checksum";
  total

let size packet =
  let total = total_of packet in
  let sz = total + 3 in
  if sz > Bytes.length packet then invalid_arg "Trailer: total exceeds packet";
  sz

let entries packet =
  let stop = Bytes.length packet - 3 in
  let start = stop - total_of packet in
  if start < 0 then invalid_arg "Trailer: total exceeds packet";
  (* Walk backwards through trailing length fields, accumulating in
     appended order. Each entry is checked and decoded in place: only
     the segment handed out is allocated. *)
  let rec walk pos acc =
    if pos = start then acc
    else begin
      let len = read_u16_at packet (pos - 2) in
      if len = marker then walk (pos - 2) (Truncated :: acc)
      else if len = branch_marker then walk (pos - 2) (Branch :: acc)
      else begin
        let seg_start = pos - 3 - len in
        if seg_start < start then invalid_arg "Trailer: entry exceeds trailer";
        if len < Segment.fixed_size then invalid_arg "Trailer: entry too small";
        let check = Char.code (Bytes.get packet (pos - 3)) in
        if check <> cksum_sub packet ~off:seg_start ~len then
          invalid_arg "Trailer: entry checksum";
        let seg = Segment.decode_sub packet ~off:seg_start ~len in
        walk seg_start (Hop seg :: acc)
      end
    end
  in
  walk stop []

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
  if sub_len < 2 then invalid_arg "Trailer: malformed (short)";
  let old_total = Bytes.get_uint16_be packet (n - 2) in
  if sub_len < 3 || Char.code (Bytes.get packet (n - 3)) <> check_of_total old_total
  then invalid_arg "Trailer: total checksum";
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
  if rest_len < 2 then invalid_arg "Trailer: malformed (short)";
  let old_total = Bytes.get_uint16_be packet (n - 2) in
  if rest_len < 3 || Char.code (Bytes.get packet (n - 3)) <> check_of_total old_total
  then invalid_arg "Trailer: total checksum";
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
