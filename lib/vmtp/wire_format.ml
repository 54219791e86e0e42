type kind = Request | Response | Ack

let header_size = 28
let trailer_size = 8
let max_group = 32

let kind_to_int = function Request -> 0 | Response -> 1 | Ack -> 2

let kind_of_int = function
  | 0 -> Request
  | 1 -> Response
  | 2 -> Ack
  | _ -> invalid_arg "Wire_format: bad kind"

let flag_acks_response = 0x1

(* header offsets *)
let src_at = 0
let dst_at = 8
let txn_at = 16
let kind_at = 20
let index_at = 21
let group_at = 22
let flags_at = 23
let mask_at = 24

(* trailer offsets, from the packet's end *)
let timestamp_back = 8
let checksum_back = 4

(* What byte [p] of a packet starting at [at] adds to a ones-complement
   sum: the high byte of a word at an even offset from the packet's
   start, the low byte at an odd one. *)
let weight b ~at p = Bytes.get_uint8 b p lsl (if (p - at) land 1 = 0 then 8 else 0)

(* The ones-complement sum of the [n]-byte packet at [b.[at]] with its
   checksum field read as zero, carries folded: the plain sum of the
   big-endian 16-bit words counted from the packet's start (an odd last
   byte padded with zero), less what the field's two bytes added. The
   field sits at an odd offset when the data length is odd, so each
   byte is taken back at its own weight. *)
let sum_without_field b ~at ~n =
  let stop = at + n in
  let sum = ref 0 and i = ref at in
  while !i + 1 < stop do
    sum := !sum + Bytes.get_uint16_be b !i;
    i := !i + 2
  done;
  if !i < stop then sum := !sum + (Bytes.get_uint8 b !i lsl 8);
  let field = stop - checksum_back in
  let sum = ref (!sum - weight b ~at field - weight b ~at (field + 1)) in
  while !sum > 0xFFFF do
    sum := (!sum land 0xFFFF) + (!sum lsr 16)
  done;
  !sum

let checksum b ~at ~n = lnot (sum_without_field b ~at ~n) land 0xFFFF

let encode_into b ~at ~src ~dst ~txn ~kind ~index ~group_size ~acks_response ~mask
    ~timestamp_ms data ~off ~len =
  if index < 0 || index >= max_group then invalid_arg "Wire_format: index";
  if group_size < 1 || group_size > max_group then
    invalid_arg "Wire_format: group size";
  let n = header_size + len + trailer_size in
  if at < 0 || at > Bytes.length b - n then invalid_arg "Wire_format: buffer";
  Bytes.set_int64_be b (at + src_at) src;
  Bytes.set_int64_be b (at + dst_at) dst;
  Bytes.set_int32_be b (at + txn_at) (Int32.of_int txn);
  Bytes.set_uint8 b (at + kind_at) (kind_to_int kind);
  Bytes.set_uint8 b (at + index_at) index;
  Bytes.set_uint8 b (at + group_at) group_size;
  Bytes.set_uint8 b (at + flags_at) (if acks_response then flag_acks_response else 0);
  Bytes.set_int32_be b (at + mask_at) (Int32.of_int mask);
  Bytes.blit data off b (at + header_size) len;
  let stop = at + n in
  Bytes.set_int32_be b (stop - timestamp_back) (Int32.of_int timestamp_ms);
  Bytes.set_uint16_be b (stop - 2) 0 (* pad *);
  Bytes.set_uint16_be b (stop - checksum_back) (checksum b ~at ~n)

let encode ~src ~dst ~txn ~kind ~index ~group_size ~acks_response ~mask ~timestamp_ms
    data ~off ~len =
  let b = Bytes.create (header_size + len + trailer_size) in
  encode_into b ~at:0 ~src ~dst ~txn ~kind ~index ~group_size ~acks_response ~mask
    ~timestamp_ms data ~off ~len;
  b

let u32 b at = Int32.to_int (Bytes.get_int32_be b at) land 0xFFFFFFFF

let src_entity b = Bytes.get_int64_be b src_at
let dst_entity b = Bytes.get_int64_be b dst_at
let transaction b = u32 b txn_at
let kind b = kind_of_int (Bytes.get_uint8 b kind_at)
let index b = Bytes.get_uint8 b index_at
let group_size b = Bytes.get_uint8 b group_at
let acks_response b = Bytes.get_uint8 b flags_at land flag_acks_response <> 0
let delivery_mask b = u32 b mask_at
let timestamp_ms b = u32 b (Bytes.length b - timestamp_back)
let data_len b = Bytes.length b - header_size - trailer_size

let checksum_ok b =
  Bytes.length b >= header_size + trailer_size
  && checksum b ~at:0 ~n:(Bytes.length b)
     = Bytes.get_uint16_be b (Bytes.length b - checksum_back)

let valid b = checksum_ok b && Bytes.get_uint8 b kind_at <= kind_to_int Ack

let mask_with m i = (m lor (1 lsl i)) land 0xFFFFFFFF
let mask_has m i = m land (1 lsl i) <> 0
let mask_full n = if n >= 32 then 0xFFFFFFFF else (1 lsl n) - 1
