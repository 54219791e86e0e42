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

let flags ~vnt ~dib ~rpf =
  Array.unsafe_get flags_table
    ((if vnt then 0x4 else 0) lor (if dib then 0x2 else 0) lor if rpf then 0x1 else 0)

let no_flags = flags ~vnt:false ~dib:false ~rpf:false

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

let return_hop seg ~port ~token ~info =
  let priority = seg.priority and branch = Bytes.empty in
  check ~priority ~token ~info ~branch ~port;
  { port; flags = flags ~vnt:false ~dib:seg.flags.dib ~rpf:true; priority; token; info; branch }

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

let length_byte b =
  let n = Bytes.length b in
  if n < extended then n else extended

let write_field w b =
  if Bytes.length b >= extended then Wire.Buf.put_u32_int w (Bytes.length b);
  Wire.Buf.put_bytes w b

let brf_bit = 0x1

let write_as w ~vnt ~dib ~priority t =
  let has_branch = Bytes.length t.branch > 0 in
  let bits =
    flags_bits ~vnt ~dib ~rpf:t.flags.rpf lor if has_branch then brf_bit else 0
  in
  Wire.Buf.put_u8 w (length_byte t.info);
  Wire.Buf.put_u8 w (length_byte t.token);
  Wire.Buf.put_u8 w t.port;
  Wire.Buf.put_u8 w ((bits lsl 4) lor (priority land 0xF));
  write_field w t.token;
  write_field w t.info;
  if has_branch then begin
    Wire.Buf.put_u16 w (Bytes.length t.branch);
    Wire.Buf.put_bytes w t.branch
  end

let write w t = write_as w ~vnt:t.flags.vnt ~dib:t.flags.dib ~priority:t.priority t

(* The one place VNT is set from position: on every segment but the
   last, and on the last iff [last_vnt]. [stamp] replaces every
   segment's DIB and priority with [dib] and [priority]. *)
let rec write_chain w ~last_vnt ~stamp ~dib ~priority = function
  | [] -> ()
  | t :: rest ->
    let vnt = match rest with [] -> last_vnt | _ :: _ -> true in
    if stamp then write_as w ~vnt ~dib ~priority t
    else write_as w ~vnt ~dib:t.flags.dib ~priority:t.priority t;
    write_chain w ~last_vnt ~stamp ~dib ~priority rest

let write_route w ~last_vnt route =
  write_chain w ~last_vnt ~stamp:false ~dib:false ~priority:0 route

let write_route_stamped w ~dib ~priority route =
  write_chain w ~last_vnt:false ~stamp:true ~dib ~priority route

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

(* [read]'s walk over the bytes without copying a field out: each step
   raises where [read] would, in the same order. *)
let need b pos n = if n > Bytes.length b - pos then raise Wire.Buf.Underflow

let field_end b pos len_byte =
  if len_byte < extended then begin
    need b pos len_byte;
    pos + len_byte
  end
  else begin
    need b pos 4;
    let n = (Bytes.get_uint16_be b pos lsl 16) lor Bytes.get_uint16_be b (pos + 2) in
    need b (pos + 4) n;
    pos + 4 + n
  end

let extent b ~off =
  if off < 0 || off > Bytes.length b then invalid_arg "Segment.extent";
  need b off fixed_size;
  let info_len = Char.code (Bytes.unsafe_get b off) in
  let token_len = Char.code (Bytes.unsafe_get b (off + 1)) in
  let pos = field_end b (off + fixed_size) token_len in
  let pos = field_end b pos info_len in
  let pos =
    if (Char.code (Bytes.unsafe_get b (off + 3)) lsr 4) land brf_bit = 0 then pos
    else begin
      need b pos 2;
      let n = Bytes.get_uint16_be b pos in
      if n = 0 then failwith "Segment.read: empty branch";
      need b (pos + 2) n;
      pos + 2 + n
    end
  in
  pos - off

type error = Truncated | Malformed of string

let error_to_string = function
  | Truncated -> "truncated"
  | Malformed m -> "malformed (" ^ m ^ ")"

let pp_error fmt e = Format.pp_print_string fmt (error_to_string e)

let parse b =
  match decode b with
  | t -> Ok t
  | exception (Wire.Buf.Underflow | Wire.Buf.Overflow) -> Error Truncated
  | exception Invalid_argument m -> Error (Malformed m)
  | exception Failure m -> Error (Malformed m)

let peek_port b ~off = Char.code (Bytes.get b (off + 2))
let peek_vnt b ~off = Char.code (Bytes.get b (off + 3)) land 0x80 <> 0

let equal a b =
  a.port = b.port && a.flags = b.flags && a.priority = b.priority
  && Bytes.equal a.token b.token && Bytes.equal a.info b.info
  && Bytes.equal a.branch b.branch

let pp fmt t =
  Format.fprintf fmt "@[seg{port=%d%s%s%s%s prio=%X tok=%dB info=%dB}@]" t.port
    (if t.flags.vnt then " VNT" else "")
    (if t.flags.dib then " DIB" else "")
    (if t.flags.rpf then " RPF" else "")
    (if Bytes.length t.branch > 0 then
       Printf.sprintf " BRF:%dB" (Bytes.length t.branch)
     else "")
    t.priority (Bytes.length t.token) (Bytes.length t.info)
