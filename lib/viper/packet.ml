type t = {
  route : Segment.t list;
  data : bytes;
  trailer : Trailer.entry list;
}

let truncated t =
  List.exists
    (function Trailer.Truncated -> true | Trailer.Hop _ | Trailer.Branch -> false)
    t.trailer

let took_branch t =
  List.exists
    (function Trailer.Branch -> true | Trailer.Hop _ | Trailer.Truncated -> false)
    t.trailer

let max_transmission_unit = 1500
let max_route_segments = 48

let normalize_vnt route =
  let n = List.length route in
  List.mapi
    (fun i seg ->
      let vnt = i < n - 1 in
      { seg with Segment.flags = { seg.Segment.flags with Segment.vnt } })
    route

let build ~route ~data =
  if route = [] then invalid_arg "Packet.build: empty route";
  if List.length route > max_route_segments then
    invalid_arg "Packet.build: route too long";
  let route = normalize_vnt route in
  let size =
    List.fold_left (fun acc s -> acc + Segment.encoded_size s) 0 route
    + Bytes.length data + 2
  in
  let w = Wire.Buf.create_writer size in
  List.iter (Segment.write w) route;
  Wire.Buf.put_bytes w data;
  Wire.Buf.put_bytes w Trailer.empty;
  Wire.Buf.contents w

let read_route r =
  let rec go n acc =
    if n > max_route_segments then invalid_arg "Packet: route too long";
    let seg = Segment.read r in
    if seg.Segment.flags.Segment.vnt then go (n + 1) (seg :: acc)
    else List.rev (seg :: acc)
  in
  go 1 []

let decode bytes =
  let r = Wire.Buf.reader_of_bytes bytes in
  let route = read_route r in
  let rest_start = Wire.Buf.position r in
  let trailer_size = Trailer.size bytes in
  let data_len = Bytes.length bytes - rest_start - trailer_size in
  if data_len < 0 then invalid_arg "Packet.decode: overlapping trailer";
  let data = Wire.Buf.get_bytes r data_len in
  let trailer = Trailer.entries bytes in
  { route; data; trailer }

let encode t =
  if t.route = [] then invalid_arg "Packet.encode: empty route";
  let w = Wire.Buf.create_writer 256 in
  List.iter (Segment.write w) t.route;
  Wire.Buf.put_bytes w t.data;
  let base = Wire.Buf.contents w in
  let with_trailer =
    List.fold_left
      (fun acc entry ->
        match entry with
        | Trailer.Hop seg -> Trailer.append_hop acc seg
        | Trailer.Truncated -> Trailer.append_truncation_marker acc
        | Trailer.Branch -> Trailer.append_branch_marker acc)
      (Bytes.cat base Trailer.empty)
      t.trailer
  in
  with_trailer

type nonrec error = Segment.error = Truncated | Malformed of string

let wrap f x =
  match f x with
  | v -> Ok v
  | exception (Wire.Buf.Underflow | Wire.Buf.Overflow) -> Error Segment.Truncated
  | exception Invalid_argument m -> Error (Segment.Malformed m)
  | exception Failure m -> Error (Segment.Malformed m)

let parse bytes = wrap decode bytes

let strip_leading bytes =
  let r = Wire.Buf.reader_of_bytes bytes in
  let seg = Segment.read r in
  (seg, Wire.Buf.take_rest r)

let parse_leading bytes = wrap strip_leading bytes

let strip_leading_pos bytes =
  let r = Wire.Buf.reader_of_bytes bytes in
  let seg = Segment.read r in
  (seg, Wire.Buf.position r)

let parse_leading_pos bytes = wrap strip_leading_pos bytes

let forward bytes ~return_seg =
  let seg, pos = strip_leading_pos bytes in
  (seg, Trailer.append_hop_sub bytes ~pos return_seg)

let encode_route_segments route =
  if route = [] then invalid_arg "Packet.encode_route_segments: empty route";
  if List.length route > max_route_segments then
    invalid_arg "Packet.encode_route_segments: route too long";
  let route = normalize_vnt route in
  let size = List.fold_left (fun acc s -> acc + Segment.encoded_size s) 0 route in
  let w = Wire.Buf.create_writer size in
  List.iter (Segment.write w) route;
  Wire.Buf.contents w

let parse_route_segments bytes =
  let go () =
    let r = Wire.Buf.reader_of_bytes bytes in
    let route = read_route r in
    if Wire.Buf.remaining r <> 0 then
      invalid_arg "Packet.parse_route_segments: trailing bytes";
    route
  in
  wrap go ()

(* Skip past the remaining route segments (the VNT chain) and splice
   [route] — pre-encoded, VNT-normalized segment bytes — in their place,
   keeping data and trailer byte-identical. This is the router's failover
   step: the branch replaces the rest of the sold route. *)
let skip_route_chain bytes =
  let r = Wire.Buf.reader_of_bytes bytes in
  let rec skip n =
    if n > max_route_segments then invalid_arg "Packet: route too long";
    let seg = Segment.read r in
    if seg.Segment.flags.Segment.vnt then skip (n + 1)
  in
  skip 1;
  Wire.Buf.position r

let substitute_route bytes ~route =
  let pos = skip_route_chain bytes in
  let rest_len = Bytes.length bytes - pos in
  let rlen = Bytes.length route in
  let out = Bytes.create (rlen + rest_len) in
  Bytes.blit route 0 out 0 rlen;
  Bytes.blit bytes pos out rlen rest_len;
  out

(* The failover fast path fused: byte-identical to
   [Trailer.append_branch_marker (substitute_route bytes ~route)] but
   with one allocation instead of two full copies (PR 7 composed them). *)
let substitute_route_branch bytes ~route =
  let pos = skip_route_chain bytes in
  Trailer.append_branch_marker_sub bytes ~pos ~route

(* The return hops come from the reverse lanes, oldest first — the order
   VIPER appends them — so [return_route] rides the recorded path back. *)
let of_xsr b =
  let priority = Xsr.priority b in
  let flags = { Segment.vnt = false; dib = false; rpf = true } in
  let trailer =
    List.rev_map
      (fun port -> Trailer.Hop (Segment.make ~flags ~priority ~port ()))
      (Xsr.reverse_ports b)
  in
  {
    route = [ Segment.make ~priority ~port:Segment.local_port () ];
    data = Xsr.data b;
    trailer;
  }

let truncate_to bytes ~max =
  if max < 0 then invalid_arg "Packet.truncate_to";
  if Bytes.length bytes <= max then bytes
  else begin
    let kept = Bytes.sub bytes 0 max in
    Trailer.append_truncation_marker (Bytes.cat kept Trailer.empty)
  end

let return_route_hops t =
  let hops =
    List.filter_map
      (function
        | Trailer.Hop s -> Some s
        | Trailer.Truncated | Trailer.Branch -> None)
      t.trailer
  in
  let reversed =
    List.rev_map
      (fun seg ->
        { seg with Segment.flags = { seg.Segment.flags with Segment.rpf = true } })
      hops
  in
  normalize_vnt reversed

let return_route t =
  if truncated t then failwith "Packet.return_route: packet was truncated";
  return_route_hops t

let return_route_r t =
  if truncated t then Error (Segment.Malformed "Packet.return_route: truncated")
  else Ok (return_route_hops t)

let peek_ports bytes =
  let r = Wire.Buf.reader_of_bytes bytes in
  let s1 = Segment.read r in
  if s1.Segment.flags.Segment.vnt then begin
    let s2 = Segment.read r in
    (s1.Segment.port, Some s2.Segment.port)
  end
  else (s1.Segment.port, None)

let header_bytes bytes =
  let r = Wire.Buf.reader_of_bytes bytes in
  let seg = Segment.read r in
  Segment.encoded_size seg

let total_header_overhead ~route =
  List.fold_left (fun acc s -> acc + Segment.encoded_size s) 0 route
