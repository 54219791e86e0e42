type Netsim.Frame.meta +=
  | Setup of { call_id : int; dst : Topo.Graph.node_id; reserve_bps : int; vci : int }
  | Connect of { call_id : int; vci : int }
  | Release of { call_id : int; vci : int; reason : string }

let setup_bytes = 40

let encode_data ~vci data =
  let w = Wire.Buf.create_writer (2 + Bytes.length data) in
  Wire.Buf.put_u16 w vci;
  Wire.Buf.put_bytes w data;
  Wire.Buf.contents w

let decode_data b =
  let r = Wire.Buf.reader_of_bytes b in
  let vci = Wire.Buf.get_u16 r in
  (vci, Wire.Buf.take_rest r)

let alloc_vci ~counter ~this_node ~peer =
  let n = counter () in
  if this_node < peer then 2 * n else (2 * n) + 1
