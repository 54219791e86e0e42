type t = { data : bytes; wire : bytes; off : int; len : int; xsr : bool }

let took_branch t = (not t.xsr) && Trailer.branched_in t.wire ~off:t.off ~len:t.len

let max_transmission_unit = 1500
let max_route_segments = 48

let check_route ~fn route =
  match List.length route with
  | 0 -> invalid_arg (fn ^ ": empty route")
  | n when n > max_route_segments -> invalid_arg (fn ^ ": route too long")
  | _ -> ()

let total_header_overhead ~route =
  List.fold_left (fun acc s -> acc + Segment.encoded_size s) 0 route

(* The bytes a router appends to the trailer when it strips a segment:
   the return hop (at most the segment, without its branch) and the
   entry's checksum and length. Local delivery appends nothing. *)
let rec tailroom = function
  | [] -> 0
  | seg :: rest ->
    let field b = if Bytes.length b < 255 then Bytes.length b else Bytes.length b + 4 in
    (if seg.Segment.port = Segment.local_port then 0
     else Segment.fixed_size + field seg.Segment.token + field seg.Segment.info + 3)
    + tailroom rest

(* One segment's share of it, read in place from the segment at [off]. *)
let hop_room b ~off =
  if Segment.peek_port b ~off = Segment.local_port then 0
  else Segment.return_hop_size b ~off ~port:0 ~keep_token:true ~info:None + 3

(* The same, read off the VNT chain at [off] in place. *)
let rec tailroom_from b ~off ~stop =
  match Segment.extent_to b ~off ~stop with
  | exception (Wire.Buf.Underflow | Invalid_argument _ | Failure _) -> 0
  | hdr ->
    hop_room b ~off
    + if Segment.peek_vnt b ~off then tailroom_from b ~off:(off + hdr) ~stop else 0

let tailroom_in b ~off ~len =
  match tailroom_from b ~off ~stop:(off + len) with
  | room -> room
  | exception Invalid_argument _ -> 0

(* One allocation: the route is written straight into the packet (VNT
   from position, {!Segment.write_route}), then room for [len] data
   bytes and the empty trailer, and [tailroom] bytes are left past
   them. Nothing is copied out. *)
let reserve_with ~stamp ~dib ~priority ~tailroom ~route ~len =
  check_route ~fn:"Packet.build" route;
  let header = total_header_overhead ~route in
  let tlen = Bytes.length Trailer.empty in
  let out = Bytes.create (header + len + tlen + tailroom) in
  if stamp then Segment.put_route_stamped out ~pos:0 ~dib ~priority route
  else
    Segment.write_route (Wire.Buf.writer_onto out ~off:0 ~len:header) ~last_vnt:false
      route;
  Bytes.blit Trailer.empty 0 out (header + len) tlen;
  out

(* [data] into the room a reserve left for it, which ends where the
   empty trailer starts. *)
let put_data ~tailroom data out =
  let dlen = Bytes.length data in
  let at = Bytes.length out - tailroom - Bytes.length Trailer.empty - dlen in
  Bytes.blit data 0 out at dlen;
  out

let build ~route ~data =
  put_data ~tailroom:0 data
    (reserve_with ~stamp:false ~dib:false ~priority:0 ~tailroom:0 ~route
       ~len:(Bytes.length data))

let reserve_stamped ~tailroom ~priority ~dib ~route ~len =
  reserve_with ~stamp:true ~dib ~priority ~tailroom ~route ~len

let build_stamped ~tailroom ~priority ~dib ~route ~data =
  put_data ~tailroom data
    (reserve_stamped ~tailroom ~priority ~dib ~route ~len:(Bytes.length data))

let read_route r =
  let rec go n acc =
    if n > max_route_segments then invalid_arg "Packet: route too long";
    let seg = Segment.read r in
    if seg.Segment.flags.Segment.vnt then go (n + 1) (seg :: acc)
    else List.rev (seg :: acc)
  in
  go 1 []

(* The window's bytes as a packet of their own: the buffer itself when
   the window is all of it, else a copy. *)
let exact b ~off ~len = if off = 0 && len = Bytes.length b then b else Bytes.sub b off len
let xsr_wire t = exact t.wire ~off:t.off ~len:t.len

(* An XSR packet's route is local delivery; its trailer is the return
   hops its reverse lanes recorded ({!Xsr.reverse_ports}), oldest first,
   the order VIPER appends them, each made of a flagless segment. *)
let route t =
  if t.xsr then
    [ Segment.make ~priority:(Xsr.priority (xsr_wire t)) ~port:Segment.local_port () ]
  else read_route (Wire.Buf.reader_window t.wire ~off:t.off ~len:t.len)

let trailer t =
  if t.xsr then
    let b = xsr_wire t in
    let stripped = Segment.make ~priority:(Xsr.priority b) ~port:Segment.local_port () in
    List.rev_map
      (fun port ->
        Trailer.Hop
          (Segment.return_hop stripped ~port ~token:Bytes.empty ~info:Bytes.empty))
      (Xsr.reverse_ports b)
  else Trailer.entries_in t.wire ~off:t.off ~len:t.len

type nonrec error = Segment.error = Truncated | Malformed of string

(* Where the route's VNT chain starting at [pos] ends, each segment
   read in place. *)
let rec skip_chain b ~stop pos n =
  if n > max_route_segments then invalid_arg "Packet: route too long";
  let e = Segment.extent_to b ~off:pos ~stop in
  if Segment.peek_vnt b ~off:pos then skip_chain b ~stop (pos + e) (n + 1) else pos + e

(* The arrival check, bounded by the window: the route's VNT chain, the
   trailer's size, the data between them, every trailer entry. Returns
   where the data starts; it ends where the trailer begins. *)
let data_start b ~off ~len =
  let start = skip_chain b ~stop:(off + len) off 1 in
  if off + len - Trailer.size_in b ~off ~len < start then
    invalid_arg "Packet.decode: overlapping trailer";
  Trailer.verify_in b ~off ~len;
  start

let check_window b ~off ~len =
  let start = data_start b ~off ~len in
  let data = Bytes.sub b start (off + len - Trailer.size_in b ~off ~len - start) in
  { data; wire = b; off; len; xsr = false }

let of_window b ~off ~len =
  match check_window b ~off ~len with
  | t -> Ok t
  | exception (Wire.Buf.Underflow | Wire.Buf.Overflow) -> Error Segment.Truncated
  | exception Invalid_argument m -> Error (Segment.Malformed m)
  | exception Failure m -> Error (Segment.Malformed m)

let parse b = of_window b ~off:0 ~len:(Bytes.length b)

let intact b ~off ~len =
  match data_start b ~off ~len with
  | _ -> true
  | exception (Wire.Buf.Underflow | Wire.Buf.Overflow | Invalid_argument _ | Failure _) ->
    false

let terminates t =
  t.xsr
  || (not (Segment.peek_vnt t.wire ~off:t.off))
     && Segment.peek_port t.wire ~off:t.off = Segment.local_port

let forward bytes ~return_seg =
  let pos = Segment.extent_to bytes ~off:0 ~stop:(Bytes.length bytes) in
  (Segment.decode_sub bytes ~off:0 ~len:pos, Trailer.append_hop bytes ~pos return_seg)

let encode_route_segments route =
  check_route ~fn:"Packet.encode_route_segments" route;
  let size = total_header_overhead ~route in
  let out = Bytes.create size in
  Segment.write_route (Wire.Buf.writer_onto out ~off:0 ~len:size) ~last_vnt:false route;
  out

(* Splice [route] — pre-encoded, VNT-normalized segment bytes — in place
   of the remaining route (the VNT chain), keeping data and trailer
   byte-identical: the router's failover step, where the branch replaces
   the rest of the sold route. *)
let substitute_route bytes ~route =
  let pos = skip_chain bytes ~stop:(Bytes.length bytes) 0 1 in
  let rest_len = Bytes.length bytes - pos in
  let rlen = Bytes.length route in
  let out = Bytes.create (rlen + rest_len) in
  Bytes.blit route 0 out 0 rlen;
  Bytes.blit bytes pos out rlen rest_len;
  out

(* The splice and the branch marker in one sized allocation. *)
let substitute_route_branch b ~off ~len ~route =
  let pos = skip_chain b ~stop:(off + len) off 1 in
  let rlen = Bytes.length route in
  let rest = off + len - pos in
  let out = Bytes.create (rlen + rest + 2) in
  Bytes.blit route 0 out 0 rlen;
  ignore (Trailer.append_marker b ~off:pos ~len:rest Trailer.Branch out ~at:rlen);
  out

let of_xsr b = { data = Xsr.data b; wire = b; off = 0; len = Bytes.length b; xsr = true }

(* The window's first [max] bytes and a fresh trailer holding only the
   truncation marker, in one buffer. *)
let truncate_to b ~off ~len ~max =
  if max < 0 then invalid_arg "Packet.truncate_to";
  if len <= max then exact b ~off ~len
  else begin
    let out = Bytes.create (max + 5) in
    Bytes.blit b off out 0 max;
    Bytes.blit Trailer.empty 0 out max 3;
    ignore (Trailer.append_marker out ~off:0 ~len:(max + 3) Trailer.Truncated out ~at:0);
    out
  end

(* The reply's size, read off the trailer in one fold before anything
   is written, packed into one int so that the fold allocates nothing:
   the reversed hops' bytes (the low 20 bits), the room their routers
   will append (the next 20) and the hop count (above them); -1 once a
   router's truncation marker is seen. A trailer's total is a 16-bit
   field, so the first two stay well inside their 20 bits. *)
let field_bits = 20
let field_mask = (1 lsl field_bits) - 1
let one_hop = 1 lsl (2 * field_bits)
let cut = -1
let size_bytes s = s land field_mask
let size_room s = (s lsr field_bits) land field_mask
let size_hops s = s lsr (2 * field_bits)

let size_hop () b off len s =
  if s = cut then cut
  else
    s + Segment.reversed_hop_size b ~off ~len + (hop_room b ~off lsl field_bits) + one_hop

let size_mark () entry s =
  match entry with Trailer.Truncated -> cut | Trailer.Branch | Trailer.Hop _ -> s

(* An XSR arrival's hops are return hops of flagless segments
   ({!trailer}), reversed: minimal segments with these flags. *)
let xsr_hop_bits = Segment.reversed_hop_bits (Segment.return_hop_bits 0)

let sizing t =
  if not t.xsr then
    Trailer.fold_in t.wire ~off:t.off ~len:t.len ~hop:size_hop ~mark:size_mark () 0
  else begin
    let b = xsr_wire t in
    let hops = Xsr.hop_idx b in
    let room = ref 0 in
    for i = 0 to hops - 1 do
      if Xsr.reverse_port b i <> Segment.local_port then
        room := !room + Segment.fixed_size + 3
    done;
    (hops * Segment.fixed_size) + (!room lsl field_bits) + (hops * one_hop)
  end

let truncated t = sizing t = cut

let write_hop out b off len at = Segment.write_reversed_hop b ~off ~len out ~at
let keep_at _ _ at = at

(* One allocation: the trailer's hops reversed straight into it, newest
   first as the trailer walk visits them, markers skipped; then the
   local segment, room for [len] data bytes, the empty trailer and the
   tailroom. *)
let reserve_reply t ~priority ~len =
  let s = sizing t in
  if s = cut then Error (Segment.Malformed "Packet.return_route: truncated")
  else if size_hops s >= max_route_segments then
    Error (Segment.Malformed "Packet.reply: route too long")
  else begin
    if not (Token.Priority.valid priority) then invalid_arg "Packet.reply: priority";
    let hops = size_hops s and header = size_bytes s + Segment.fixed_size in
    let tlen = Bytes.length Trailer.empty in
    let out = Bytes.create (header + len + tlen + size_room s) in
    (if t.xsr then
       let b = xsr_wire t in
       for i = 0 to hops - 1 do
         Segment.put_minimal out ~at:(i * Segment.fixed_size) ~bits:xsr_hop_bits
           ~port:(Xsr.reverse_port b (hops - 1 - i)) ~priority:(Xsr.priority b)
       done
     else
       ignore
         (Trailer.fold_in t.wire ~off:t.off ~len:t.len ~hop:write_hop ~mark:keep_at out 0));
    Segment.put_minimal out ~at:(size_bytes s) ~port:Segment.local_port ~bits:0 ~priority;
    Bytes.blit Trailer.empty 0 out (header + len) tlen;
    Ok (out, header)
  end

let reply t ~priority ~data =
  let len = Bytes.length data in
  match reserve_reply t ~priority ~len with
  | Error e -> Error e
  | Ok (out, at) ->
    Bytes.blit data 0 out at len;
    Ok (out, at + len + Bytes.length Trailer.empty)

(* The hops of a reply's route: the segments before the local one, VNT
   cleared on the last. *)
let rec chain_hops r =
  let seg = Segment.read r in
  if not seg.Segment.flags.Segment.vnt then []
  else
    match chain_hops r with
    | [] -> [ { seg with flags = { seg.flags with vnt = false } } ]
    | rest -> seg :: rest

let return_route_r t =
  Result.map
    (fun (out, at) -> chain_hops (Wire.Buf.reader_window out ~off:0 ~len:at))
    (reserve_reply t ~priority:Token.Priority.normal ~len:0)

(* Where the segment after the leading one starts when VNT says one
   follows, else -1. Found in place with {!Segment.extent_to}, which raises
   exactly where a full read of either segment would. *)
let second_segment b ~off ~stop =
  let len1 = Segment.extent_to b ~off ~stop in
  if Segment.peek_vnt b ~off then begin
    ignore (Segment.extent_to b ~off:(off + len1) ~stop);
    off + len1
  end
  else -1

let next_port b ~off ~len =
  if Xsr.is_xsr_in b ~off ~len then Xsr.next_port (exact b ~off ~len)
  else
    match second_segment b ~off ~stop:(off + len) with
    | exception (Wire.Buf.Underflow | Failure _) -> -1
    | _ -> Segment.peek_port b ~off

