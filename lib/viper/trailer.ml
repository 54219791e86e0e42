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

let cksum_sub b ~off ~len =
  let acc = ref cksum_seed in
  for i = off to off + len - 1 do
    acc := !acc lxor Char.code (Bytes.unsafe_get b i)
  done;
  !acc

let check_of_total total = cksum_seed lxor (total lsr 8) lxor (total land 0xFF)

(* The terminator for [total] at [at]: the only place one is written.
   It and the appenders' other shared steps below are inlined, so the
   per-hop append pays no call for sharing them. *)
let[@inline] put_terminator b ~at total =
  Bytes.set b at (Char.unsafe_chr (check_of_total total));
  Bytes.set_uint16_be b (at + 1) total

let empty =
  let b = Bytes.create 3 in
  put_terminator b ~at:0 0;
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

let size_in b ~off ~len =
  let sz = total_in b ~lo:off ~hi:(off + len) + 3 in
  if sz > len then invalid_arg "Trailer: total exceeds packet";
  sz

(* Walk the trailer ending the window backwards through its trailing
   length fields, checking each entry in place and folding [hop] (over a
   checked segment's bytes) or [mark] over them, newest entry first;
   both get [env] first. *)
let rec walk b ~lo ~hi ~start ~hop ~mark env pos acc =
  if pos = start then acc
  else begin
    let len = read_u16_in b ~lo ~hi (pos - 2) in
    if len = marker then
      walk b ~lo ~hi ~start ~hop ~mark env (pos - 2) (mark env Truncated acc)
    else if len = branch_marker then
      walk b ~lo ~hi ~start ~hop ~mark env (pos - 2) (mark env Branch acc)
    else begin
      let seg_start = pos - 3 - len in
      if seg_start < start then invalid_arg "Trailer: entry exceeds trailer";
      if len < Segment.fixed_size then invalid_arg "Trailer: entry too small";
      let check = Char.code (Bytes.get b (pos - 3)) in
      if check <> cksum_sub b ~off:seg_start ~len then
        invalid_arg "Trailer: entry checksum";
      walk b ~lo ~hi ~start ~hop ~mark env seg_start (hop env b seg_start len acc)
    end
  end

let fold_in b ~off ~len ~hop ~mark env acc =
  let hi = off + len in
  let stop = hi - 3 in
  let start = stop - total_in b ~lo:off ~hi in
  if start < off then invalid_arg "Trailer: total exceeds packet";
  walk b ~lo:off ~hi ~start ~hop ~mark env stop acc

let decode_hop () b off len acc = Hop (Segment.decode_sub b ~off ~len) :: acc
let cons_mark () entry acc = entry :: acc

(* Each entry is checked and decoded in place: only the segment handed
   out is allocated. *)
let entries_in b ~off ~len = fold_in b ~off ~len ~hop:decode_hop ~mark:cons_mark () []

(* [Segment.decode_sub]'s verdict without the record: the entry must be
   exactly one segment. *)
let check_hop () b off len () =
  if Segment.extent_to b ~off ~stop:(off + len) <> len then
    invalid_arg "Segment.decode: trailing bytes"

let skip_mark () _ () = ()
let verify_in b ~off ~len = fold_in b ~off ~len ~hop:check_hop ~mark:skip_mark () ()

let skip_hop () _ _ _ acc = acc
let note_branch () e found = found || match e with Branch -> true | Hop _ | Truncated -> false
let branched_in b ~off ~len = fold_in b ~off ~len ~hop:skip_hop ~mark:note_branch () false

(* The total once [added] more entry bytes join the trailer ending at
   [hi]. *)
let[@inline] grown_total b ~lo ~hi added =
  let total = total_in b ~lo ~hi + added in
  if total > 0xFFFF then invalid_arg "Trailer: overflow";
  total

(* Close the hop entry whose [len] segment bytes are at [e]: its checksum
   and length, then the terminator for [total]. *)
let[@inline] close_hop b ~e ~len total =
  Bytes.set b (e + len) (Char.unsafe_chr (cksum_sub b ~off:e ~len));
  Bytes.set_uint16_be b (e + len + 1) len;
  put_terminator b ~at:(e + len + 3) total

(* The strip and the append in one sized allocation: the remainder's
   body is blitted once and the segment serialized straight after it. *)
let append_hop packet ~pos seg =
  let len = Segment.encoded_size seg in
  if len > max_entry then invalid_arg "Trailer.append_hop: segment too large";
  let n = Bytes.length packet in
  if pos < 0 || pos > n then invalid_arg "Trailer: malformed (short)";
  let total = grown_total packet ~lo:pos ~hi:n (len + 3) in
  let body = n - pos - 3 in
  let out = Bytes.create (body + len + 6) in
  Bytes.blit packet pos out 0 body;
  Segment.write (Wire.Buf.writer_onto out ~off:body ~len) seg;
  close_hop out ~e:body ~len total;
  out

(* The hop in one pass over a window: [append_hop]'s checks in its
   order, then the remainder's body moved to [at] (nothing moves when
   the hop is in place), the return hop written straight from the
   stripped segment, and the new terminator. *)
let append_return_hop src ~off ~len ~pos ~port ~keep_token ~info dst ~at =
  let seg_len = Segment.return_hop_size src ~off ~port ~keep_token ~info in
  if seg_len > max_entry then invalid_arg "Trailer.append_hop: segment too large";
  if pos < 0 || pos > len then invalid_arg "Trailer: malformed (short)";
  let total = grown_total src ~lo:(off + pos) ~hi:(off + len) (seg_len + 3) in
  let body = len - pos - 3 in
  if not (dst == src && at = off + pos) then Bytes.blit src (off + pos) dst at body;
  let e = at + body in
  Segment.write_return_hop src ~off ~port ~keep_token ~info dst ~at:e;
  close_hop dst ~e ~len:seg_len total;
  body + seg_len + 6

let append_marker src ~off ~len entry dst ~at =
  let code =
    match entry with
    | Truncated -> marker
    | Branch -> branch_marker
    | Hop _ -> invalid_arg "Trailer.append_marker: a hop"
  in
  let total = grown_total src ~lo:off ~hi:(off + len) 2 in
  let body = len - 3 in
  if not (dst == src && at = off) then Bytes.blit src off dst at body;
  Bytes.set_uint16_be dst (at + body) code;
  put_terminator dst ~at:(at + body + 2) total;
  len + 2
