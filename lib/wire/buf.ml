exception Underflow
exception Overflow

type writer = {
  mutable store : bytes;
  mutable len : int;
  max_size : int;
}

let create_writer ?(max_size = 1 lsl 20) n =
  if n < 0 then invalid_arg "Buf.create_writer";
  { store = Bytes.create (max n 16); len = 0; max_size }

let writer_length w = w.len
let writer_capacity w = Bytes.length w.store

(* A fixed-window writer over an existing buffer: [max_size] equals the
   window, so [ensure] never grows (and never copies) — every [put_*]
   lands directly in [b] starting at [off]. Fused codecs use this to
   serialize straight into a buffer they sized themselves. *)
let writer_onto b ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length b then
    invalid_arg "Buf.writer_onto";
  { store = b; len = off; max_size = off + len }

let ensure w extra =
  let needed = w.len + extra in
  if needed > w.max_size then raise Overflow;
  if needed > Bytes.length w.store then begin
    let cap = ref (Bytes.length w.store) in
    while !cap < needed do
      cap := min w.max_size (!cap * 2)
    done;
    let fresh = Bytes.create !cap in
    Bytes.blit w.store 0 fresh 0 w.len;
    w.store <- fresh
  end

let claim w n =
  if n < 0 then invalid_arg "Buf.claim";
  ensure w n;
  let pos = w.len in
  w.len <- pos + n;
  pos

let store w = w.store

let put_u8 w v =
  if v < 0 || v > 0xff then invalid_arg "Buf.put_u8";
  ensure w 1;
  Bytes.unsafe_set w.store w.len (Char.unsafe_chr v);
  w.len <- w.len + 1

let put_u16 w v =
  if v < 0 || v > 0xffff then invalid_arg "Buf.put_u16";
  ensure w 2;
  Bytes.set_uint16_be w.store w.len v;
  w.len <- w.len + 2

let put_u32 w v =
  ensure w 4;
  Bytes.set_int32_be w.store w.len v;
  w.len <- w.len + 4

let put_u32_int w v =
  if v < 0 || v > 0xffffffff then invalid_arg "Buf.put_u32_int";
  put_u32 w (Int32.of_int (v land 0xffffffff))

let put_u64 w v =
  ensure w 8;
  Bytes.set_int64_be w.store w.len v;
  w.len <- w.len + 8

let put_sub w b off len =
  if off < 0 || len < 0 || off + len > Bytes.length b then
    invalid_arg "Buf.put_sub";
  ensure w len;
  Bytes.blit b off w.store w.len len;
  w.len <- w.len + len

let put_bytes w b = put_sub w b 0 (Bytes.length b)

let put_string w s =
  let n = String.length s in
  ensure w n;
  Bytes.blit_string s 0 w.store w.len n;
  w.len <- w.len + n

let put_zeros w n =
  if n < 0 then invalid_arg "Buf.put_zeros";
  ensure w n;
  Bytes.fill w.store w.len n '\000';
  w.len <- w.len + n

let contents w = Bytes.sub w.store 0 w.len
let reset w = w.len <- 0

type reader = {
  data : bytes;
  base : int;
  window : int;
  mutable pos : int; (* window-relative *)
}

let reader_window b ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length b then
    invalid_arg "Buf.reader_of_bytes";
  { data = b; base = off; window = len; pos = 0 }

let reader_of_bytes ?(off = 0) ?len b =
  let len = match len with Some l -> l | None -> Bytes.length b - off in
  reader_window b ~off ~len

let reader_of_string s = reader_of_bytes (Bytes.of_string s)
let remaining r = r.window - r.pos
let position r = r.pos

let seek r pos =
  if pos < 0 || pos > r.window then raise Underflow;
  r.pos <- pos

let need r n = if remaining r < n then raise Underflow

let get_u8 r =
  need r 1;
  let v = Char.code (Bytes.unsafe_get r.data (r.base + r.pos)) in
  r.pos <- r.pos + 1;
  v

let get_u16 r =
  need r 2;
  let v = Bytes.get_uint16_be r.data (r.base + r.pos) in
  r.pos <- r.pos + 2;
  v

let get_u32 r =
  need r 4;
  let v = Bytes.get_int32_be r.data (r.base + r.pos) in
  r.pos <- r.pos + 4;
  v

let get_u32_int r =
  let v = get_u32 r in
  Int32.to_int v land 0xffffffff

let get_u64 r =
  need r 8;
  let v = Bytes.get_int64_be r.data (r.base + r.pos) in
  r.pos <- r.pos + 8;
  v

let get_bytes r n =
  if n < 0 then invalid_arg "Buf.get_bytes";
  need r n;
  if n = 0 then Bytes.empty
  else begin
    let b = Bytes.sub r.data (r.base + r.pos) n in
    r.pos <- r.pos + n;
    b
  end

let get_string r n = Bytes.unsafe_to_string (get_bytes r n)

let peek_u8 r =
  need r 1;
  Char.code (Bytes.unsafe_get r.data (r.base + r.pos))

let skip r n =
  if n < 0 then invalid_arg "Buf.skip";
  need r n;
  r.pos <- r.pos + n

let take_rest r = get_bytes r (remaining r)
