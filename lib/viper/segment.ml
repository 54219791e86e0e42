type flags = { vnt : bool; dib : bool; rpf : bool }

type t = {
  port : int;
  flags : flags;
  priority : Token.Priority.t;
  token : bytes;
  info : bytes;
  branch : bytes;
}

(* Every VNT/DIB/RPF combination, built once and shared: reading or
   revising a segment picks its flags here instead of allocating a
   record. Indexed by the wire bits VNT=0x8, DIB=0x4, RPF=0x2, shifted
   down by one. *)
let flags_table =
  Array.init 8 (fun i ->
      { vnt = i land 0x4 <> 0; dib = i land 0x2 <> 0; rpf = i land 0x1 <> 0 })

let flags_of_bits b = Array.unsafe_get flags_table ((b lsr 1) land 0x7)

let no_flags = flags_of_bits 0

let local_port = 0
let broadcast_port = 255
let multicast_port_first = 240
let is_multicast_port p = p >= multicast_port_first && p <= broadcast_port

let fixed_size = 4
let extended = 255
let max_field = 65535

let check ~priority ~token ~info ~branch ~port =
  if port < 0 || port > 255 then invalid_arg "Segment.make: port";
  if not (Token.Priority.valid priority) then invalid_arg "Segment.make: priority";
  if Bytes.length token > max_field then invalid_arg "Segment.make: token too long";
  if Bytes.length info > max_field then invalid_arg "Segment.make: info too long";
  if Bytes.length branch > max_field then invalid_arg "Segment.make: branch too long"

let make ?(flags = no_flags) ?(priority = Token.Priority.normal) ?(token = Bytes.empty)
    ?(info = Bytes.empty) ?(branch = Bytes.empty) ~port () =
  check ~priority ~token ~info ~branch ~port;
  { port; flags; priority; token; info; branch }

let field_wire_size b =
  let n = Bytes.length b in
  if n < extended then n else n + 4

let branch_wire_size t =
  if Bytes.length t.branch = 0 then 0 else 2 + Bytes.length t.branch

let encoded_size t =
  fixed_size + field_wire_size t.token + field_wire_size t.info + branch_wire_size t

(* Bit 0x1 of the flags nibble (BRF, "branch route follows") is derived
   from the branch field, never stored: a segment with no branch encodes
   byte-identically to the pre-DAG wire format, so legacy packets are
   untouched. *)
let flags_bits ~vnt ~dib ~rpf =
  (if vnt then 0x8 else 0) lor (if dib then 0x4 else 0) lor if rpf then 0x2 else 0

let brf_bit = 0x1

(* The only places a return hop's flags are made. At strip time: DIB
   kept, RPF set. Reversed into a reply: DIB and BRF kept, RPF set, and
   VNT set, since at least the local segment follows. *)
let return_hop_bits bits = (bits land 0x4) lor 0x2
let reversed_hop_bits bits = (bits land 0x5) lor 0xA

let return_hop seg ~port ~token ~info =
  let priority = seg.priority and branch = Bytes.empty in
  check ~priority ~token ~info ~branch ~port;
  let { vnt; dib; rpf } = seg.flags in
  let flags = flags_of_bits (return_hop_bits (flags_bits ~vnt ~dib ~rpf)) in
  { port; flags; priority; token; info; branch }

(* A field's 32-bit length at [pos] when it is extended: the start of
   its bytes. *)
let put_field_len dst pos n =
  if n < extended then pos
  else begin
    if n > 0xffffffff then invalid_arg "Buf.put_u32_int";
    Bytes.set_uint16_be dst pos (n lsr 16);
    Bytes.set_uint16_be dst (pos + 2) (n land 0xFFFF);
    pos + 4
  end

(* [b] as a field at [pos]; the end. *)
let put_field dst pos b =
  let n = Bytes.length b in
  let pos = put_field_len dst pos n in
  if n > 0 then Bytes.blit b 0 dst pos n;
  pos + n

(* The segment's bytes at [dst.[pos]] by direct stores, checked as the
   [Wire.Buf.put_*] calls that would write them are. Returns the end. *)
let put_segment dst pos ~vnt ~dib ~priority t =
  let tn = Bytes.length t.token and inn = Bytes.length t.info in
  let blen = Bytes.length t.branch in
  let bits = flags_bits ~vnt ~dib ~rpf:t.flags.rpf lor if blen > 0 then brf_bit else 0 in
  if pos < 0 || pos + fixed_size > Bytes.length dst then invalid_arg "index out of bounds";
  Bytes.unsafe_set dst pos (Char.unsafe_chr (if inn < extended then inn else extended));
  Bytes.unsafe_set dst (pos + 1) (Char.unsafe_chr (if tn < extended then tn else extended));
  if t.port < 0 || t.port > 0xff then invalid_arg "Buf.put_u8";
  Bytes.unsafe_set dst (pos + 2) (Char.unsafe_chr t.port);
  Bytes.unsafe_set dst (pos + 3) (Char.unsafe_chr ((bits lsl 4) lor (priority land 0xF)));
  let pos = put_field dst (pos + fixed_size) t.token in
  let pos = put_field dst pos t.info in
  if blen = 0 then pos
  else begin
    if blen > 0xffff then invalid_arg "Buf.put_u16";
    Bytes.set_uint16_be dst pos blen;
    Bytes.blit t.branch 0 dst (pos + 2) blen;
    pos + 2 + blen
  end

let put_minimal dst ~at ~port ~bits ~priority =
  Bytes.set_uint16_be dst at 0;
  Bytes.set_uint16_be dst (at + 2) ((port lsl 8) lor (bits lsl 4) lor priority)

let write w t =
  let pos = Wire.Buf.claim w (encoded_size t) in
  ignore
    (put_segment (Wire.Buf.store w) pos ~vnt:t.flags.vnt ~dib:t.flags.dib
       ~priority:t.priority t)

(* The one place VNT is set from position: on every segment but the
   last, and on the last iff [last_vnt]. [stamp] replaces every
   segment's DIB and priority with [dib] and [priority]. The whole chain
   is claimed at once and written by direct stores. *)
let rec put_chain dst pos ~last_vnt ~stamp ~dib ~priority = function
  | [] -> ()
  | t :: rest ->
    let vnt = match rest with [] -> last_vnt | _ :: _ -> true in
    let pos =
      if stamp then put_segment dst pos ~vnt ~dib ~priority t
      else put_segment dst pos ~vnt ~dib:t.flags.dib ~priority:t.priority t
    in
    put_chain dst pos ~last_vnt ~stamp ~dib ~priority rest

let rec chain_size acc = function
  | [] -> acc
  | t :: rest -> chain_size (acc + encoded_size t) rest

let write_chain w ~last_vnt ~stamp ~dib ~priority route =
  let pos = Wire.Buf.claim w (chain_size 0 route) in
  put_chain (Wire.Buf.store w) pos ~last_vnt ~stamp ~dib ~priority route

let write_route w ~last_vnt route =
  write_chain w ~last_vnt ~stamp:false ~dib:false ~priority:0 route

let put_route_stamped dst ~pos ~dib ~priority route =
  put_chain dst pos ~last_vnt:false ~stamp:true ~dib ~priority route

let read_field r len_byte =
  if len_byte < extended then Wire.Buf.get_bytes r len_byte
  else begin
    let n = Wire.Buf.get_u32_int r in
    Wire.Buf.get_bytes r n
  end

let read r =
  let info_len = Wire.Buf.get_u8 r in
  let token_len = Wire.Buf.get_u8 r in
  let port = Wire.Buf.get_u8 r in
  let fp = Wire.Buf.get_u8 r in
  let bits = fp lsr 4 in
  let flags = flags_of_bits bits in
  let priority = fp land 0xF in
  let token = read_field r token_len in
  let info = read_field r info_len in
  let branch =
    if bits land brf_bit <> 0 then begin
      let n = Wire.Buf.get_u16 r in
      if n = 0 then failwith "Segment.read: empty branch" else Wire.Buf.get_bytes r n
    end
    else Bytes.empty
  in
  { port; flags; priority; token; info; branch }

let encode t =
  let w = Wire.Buf.create_writer (encoded_size t) in
  write w t;
  Wire.Buf.contents w

let decode_sub b ~off ~len =
  let r = Wire.Buf.reader_window b ~off ~len in
  let t = read r in
  if Wire.Buf.remaining r <> 0 then invalid_arg "Segment.decode: trailing bytes";
  t

let decode b = decode_sub b ~off:0 ~len:(Bytes.length b)

(* [read]'s walk over [b.[off] .. b.[stop - 1]] without copying a field
   out: each step raises where [read] would, in the same order. *)
let need ~stop pos n = if n > stop - pos then raise Wire.Buf.Underflow

let field_end b ~stop pos len_byte =
  if len_byte < extended then begin
    need ~stop pos len_byte;
    pos + len_byte
  end
  else begin
    need ~stop pos 4;
    let n = (Bytes.get_uint16_be b pos lsl 16) lor Bytes.get_uint16_be b (pos + 2) in
    need ~stop (pos + 4) n;
    pos + 4 + n
  end

let extent_to b ~off ~stop =
  if off < 0 || off > stop || stop > Bytes.length b then invalid_arg "Segment.extent_to";
  need ~stop off fixed_size;
  let info_len = Char.code (Bytes.unsafe_get b off) in
  let token_len = Char.code (Bytes.unsafe_get b (off + 1)) in
  let flags = Char.code (Bytes.unsafe_get b (off + 3)) lsr 4 in
  if info_len < extended && token_len < extended && flags land brf_bit = 0 then begin
    (* short fields and no branch: the usual shape, in one step *)
    let n = fixed_size + token_len + info_len in
    need ~stop off n;
    n
  end
  else begin
    let pos = field_end b ~stop (off + fixed_size) token_len in
    let pos = field_end b ~stop pos info_len in
    let pos =
      if flags land brf_bit = 0 then pos
      else begin
        need ~stop pos 2;
        let n = Bytes.get_uint16_be b pos in
        if n = 0 then failwith "Segment.read: empty branch";
        need ~stop (pos + 2) n;
        pos + 2 + n
      end
    in
    pos - off
  end

type error = Truncated | Malformed of string

let peek_port b ~off = Char.code (Bytes.get b (off + 2))
let peek_vnt b ~off = Char.code (Bytes.get b (off + 3)) land 0x80 <> 0
let peek_flags b ~off = flags_of_bits (Char.code (Bytes.get b (off + 3)) lsr 4)
let peek_priority b ~off = Char.code (Bytes.get b (off + 3)) land 0xF
let peek_branch b ~off = (Char.code (Bytes.get b (off + 3)) lsr 4) land brf_bit <> 0

(* The fields of a segment at [off] whose {!extent_to} is known, read in
   place: a field's length, and where its bytes start. *)
let field_len b pos len_byte =
  if len_byte < extended then len_byte
  else (Bytes.get_uint16_be b pos lsl 16) lor Bytes.get_uint16_be b (pos + 2)

let field_data pos len_byte = if len_byte < extended then pos else pos + 4
let token_at off = off + fixed_size

let token_len b ~off = field_len b (token_at off) (Char.code (Bytes.get b (off + 1)))

let info_at b ~off =
  let tlb = Char.code (Bytes.get b (off + 1)) in
  field_data (token_at off) tlb + token_len b ~off

let info_len b ~off = field_len b (info_at b ~off) (Char.code (Bytes.get b off))

let token_off b ~off = field_data (token_at off) (Char.code (Bytes.get b (off + 1)))

let return_hop_size b ~off ~port ~keep_token ~info =
  let ilb = Char.code (Bytes.get b off) and tlb = Char.code (Bytes.get b (off + 1)) in
  let token =
    if not keep_token then 0 else if tlb < extended then tlb else token_len b ~off
  in
  let info =
    match info with
    | Some i -> Bytes.length i
    | None -> if ilb < extended && tlb < extended then ilb else info_len b ~off
  in
  if port < 0 || port > 255 then invalid_arg "Segment.make: port";
  if token > max_field then invalid_arg "Segment.make: token too long";
  if info > max_field then invalid_arg "Segment.make: info too long";
  fixed_size + (if token < extended then token else token + 4)
  + if info < extended then info else info + 4

let swap_ether dst pos =
  for i = pos to pos + 5 do
    let c = Bytes.get dst i in
    Bytes.set dst i (Bytes.get dst (i + 6));
    Bytes.set dst (i + 6) c
  done

(* Byte for byte what [write] makes of [return_hop]'s record, written
   straight from the stripped segment's bytes. *)
let write_return_hop b ~off ~port ~keep_token ~info dst ~at =
  let ilb = Char.code (Bytes.get b off) and tlb = Char.code (Bytes.get b (off + 1)) in
  let fp = Char.code (Bytes.get b (off + 3)) in
  let bits = return_hop_bits (fp lsr 4) in
  let token =
    if not keep_token then 0 else if tlb < extended then tlb else token_len b ~off
  in
  (* the stripped segment's own portInfo field, found in place *)
  let ipos = if tlb < extended then token_at off + tlb else info_at b ~off in
  let ilen =
    match info with
    | Some i -> Bytes.length i
    | None -> if ilb < extended then ilb else field_len b ipos ilb
  in
  Bytes.set dst at (Char.unsafe_chr (Int.min ilen extended));
  Bytes.set dst (at + 1) (Char.unsafe_chr (Int.min token extended));
  Bytes.set dst (at + 2) (Char.unsafe_chr port);
  Bytes.set dst (at + 3) (Char.unsafe_chr ((bits lsl 4) lor (fp land 0xF)));
  let pos = put_field_len dst (at + fixed_size) token in
  if token > 0 then Bytes.blit b (field_data (token_at off) tlb) dst pos token;
  let pos = put_field_len dst (pos + token) ilen in
  match info with
  | Some i -> if ilen > 0 then Bytes.blit i 0 dst pos ilen
  | None ->
    if ilen > 0 then begin
      Bytes.blit b (field_data ipos ilb) dst pos ilen;
      if ilen = Ether.Frame.header_size then swap_ether dst pos
    end

(* An entry whose fields are in the short length form is blitted and its
   flags revised. Any other is decoded and re-encoded, which writes a
   field of under 255 bytes in the short form, as the reply always has. *)
let short_lengths b ~off =
  Char.code (Bytes.get b off) < extended && Char.code (Bytes.get b (off + 1)) < extended

let reversed_hop_size b ~off ~len =
  if short_lengths b ~off then len else encoded_size (decode_sub b ~off ~len)

let write_reversed_hop b ~off ~len dst ~at =
  let fp = Char.code (Bytes.get b (off + 3)) in
  let bits = reversed_hop_bits (fp lsr 4) in
  if short_lengths b ~off then begin
    Bytes.blit b off dst at len;
    Bytes.set dst (at + 3) (Char.unsafe_chr ((bits lsl 4) lor (fp land 0xF)));
    at + len
  end
  else
    let f = flags_of_bits bits and seg = decode_sub b ~off ~len in
    put_segment dst at ~vnt:f.vnt ~dib:f.dib ~priority:seg.priority { seg with flags = f }

let equal a b =
  a.port = b.port && a.flags = b.flags && a.priority = b.priority
  && Bytes.equal a.token b.token && Bytes.equal a.info b.info
  && Bytes.equal a.branch b.branch
