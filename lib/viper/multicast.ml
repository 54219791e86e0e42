let tree_port = 254

let encode_branches branches =
  let count = List.length branches in
  if count = 0 || count > 255 then invalid_arg "Multicast: branch count";
  let w = Wire.Buf.create_writer 64 in
  Wire.Buf.put_u8 w count;
  List.iter
    (fun branch ->
      if branch = [] then invalid_arg "Multicast: empty branch";
      let bw = Wire.Buf.create_writer 32 in
      Segment.write_route bw ~last_vnt:false branch;
      let bytes = Wire.Buf.contents bw in
      if Bytes.length bytes > 0xFFFF then invalid_arg "Multicast: branch too large";
      Wire.Buf.put_u16 w (Bytes.length bytes);
      Wire.Buf.put_bytes w bytes)
    branches;
  Wire.Buf.contents w

let decode_branches bytes =
  let r = Wire.Buf.reader_of_bytes bytes in
  let count = Wire.Buf.get_u8 r in
  if count = 0 then invalid_arg "Multicast: branch count";
  let read_branch () =
    let len = Wire.Buf.get_u16 r in
    let body = Wire.Buf.get_bytes r len in
    let br = Wire.Buf.reader_of_bytes body in
    let rec segs acc =
      if Wire.Buf.remaining br = 0 then List.rev acc
      else segs (Segment.read br :: acc)
    in
    let branch = segs [] in
    if branch = [] then invalid_arg "Multicast: empty branch";
    branch
  in
  let branches = List.init count (fun _ -> read_branch ()) in
  if Wire.Buf.remaining r <> 0 then invalid_arg "Multicast: trailing bytes";
  branches

let tree_segment ?(priority = Token.Priority.normal) ~branches () =
  Segment.make ~priority ~info:(encode_branches branches) ~port:tree_port ()
