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

let check_route ~fn route =
  match List.length route with
  | 0 -> invalid_arg (fn ^ ": empty route")
  | n when n > max_route_segments -> invalid_arg (fn ^ ": route too long")
  | _ -> ()

let total_header_overhead ~route =
  List.fold_left (fun acc s -> acc + Segment.encoded_size s) 0 route

(* One exact-size allocation: the route is written straight into the
   packet (VNT from position, {!Segment.write_route}), then the data and
   the empty trailer. The writer never grows and nothing is copied out. *)
let build_with ~stamp ~dib ~priority ~route ~data =
  check_route ~fn:"Packet.build" route;
  let header = total_header_overhead ~route in
  let dlen = Bytes.length data in
  let tlen = Bytes.length Trailer.empty in
  let out = Bytes.create (header + dlen + tlen) in
  let w = Wire.Buf.writer_onto out ~off:0 ~len:header in
  if stamp then Segment.write_route_stamped w ~dib ~priority route
  else Segment.write_route w ~last_vnt:false route;
  Bytes.blit data 0 out header dlen;
  Bytes.blit Trailer.empty 0 out (header + dlen) tlen;
  out

let build ~route ~data = build_with ~stamp:false ~dib:false ~priority:0 ~route ~data

let build_stamped ~priority ~dib ~route ~data =
  build_with ~stamp:true ~dib ~priority ~route ~data

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

let strip_leading_pos bytes =
  let r = Wire.Buf.reader_of_bytes bytes in
  let seg = Segment.read r in
  (seg, Wire.Buf.position r)

let forward bytes ~return_seg =
  let seg, pos = strip_leading_pos bytes in
  (seg, Trailer.append_hop_sub bytes ~pos return_seg)

let encode_route_segments route =
  check_route ~fn:"Packet.encode_route_segments" route;
  let size = total_header_overhead ~route in
  let out = Bytes.create size in
  Segment.write_route (Wire.Buf.writer_onto out ~off:0 ~len:size) ~last_vnt:false route;
  out

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

let unfold bytes = if Xsr.is_xsr bytes then Ok (of_xsr bytes) else parse bytes

let truncate_to bytes ~max =
  if max < 0 then invalid_arg "Packet.truncate_to";
  if Bytes.length bytes <= max then bytes
  else begin
    let kept = Bytes.sub bytes 0 max in
    Trailer.append_truncation_marker (Bytes.cat kept Trailer.empty)
  end

(* VNT set on every segment but the last, on the records themselves:
   the reply route handed to callers. Encoding never needs this — the
   writer sets VNT from position. *)
let normalize_vnt route =
  let n = List.length route in
  List.mapi
    (fun i seg ->
      let vnt = i < n - 1 in
      { seg with Segment.flags = { seg.Segment.flags with Segment.vnt } })
    route

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

(* Where the segment after the leading one starts when VNT says one
   follows, else -1. Found in place with {!Segment.extent}, which raises
   exactly where a full read of either segment would. *)
let second_segment bytes =
  let len1 = Segment.extent bytes ~off:0 in
  if Segment.peek_vnt bytes ~off:0 then begin
    ignore (Segment.extent bytes ~off:len1);
    len1
  end
  else -1

let peek_ports bytes =
  let off2 = second_segment bytes in
  ( Segment.peek_port bytes ~off:0,
    if off2 < 0 then None else Some (Segment.peek_port bytes ~off:off2) )

let peek_next_port bytes =
  if Xsr.is_xsr bytes then Xsr.peek_next_port bytes
  else
    match second_segment bytes with
    | exception (Wire.Buf.Underflow | Failure _) -> None
    | _ -> Some (Segment.peek_port bytes ~off:0)

let header_bytes bytes =
  let r = Wire.Buf.reader_of_bytes bytes in
  let seg = Segment.read r in
  Segment.encoded_size seg

