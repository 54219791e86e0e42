type header = { dst : Addr.t; src : Addr.t; ethertype : int }

let header_size = 14
let ethertype_sirpent = 0x88B5
let ethertype_ip = 0x0800
let ethertype_cvc = 0x88B6

let write_header w h =
  Addr.write w h.dst;
  Addr.write w h.src;
  Wire.Buf.put_u16 w h.ethertype

let read_header r =
  let dst = Addr.read r in
  let src = Addr.read r in
  let ethertype = Wire.Buf.get_u16 r in
  { dst; src; ethertype }

let swap h = { h with dst = h.src; src = h.dst }

let encode h payload =
  let w = Wire.Buf.create_writer (header_size + Bytes.length payload) in
  write_header w h;
  Wire.Buf.put_bytes w payload;
  Wire.Buf.contents w

let decode frame =
  let r = Wire.Buf.reader_of_bytes frame in
  let h = read_header r in
  (h, Wire.Buf.take_rest r)
