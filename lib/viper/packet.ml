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
   from position, {!Segment.write_route}), then the data and the empty
   trailer, and [tailroom] bytes are left past them. Nothing is copied
   out. *)
let build_with ~stamp ~dib ~priority ~tailroom ~route ~data =
  check_route ~fn:"Packet.build" route;
  let header = total_header_overhead ~route in
  let dlen = Bytes.length data in
  let tlen = Bytes.length Trailer.empty in
  let out = Bytes.create (header + dlen + tlen + tailroom) in
  if stamp then Segment.put_route_stamped out ~pos:0 ~dib ~priority route
  else
    Segment.write_route (Wire.Buf.writer_onto out ~off:0 ~len:header) ~last_vnt:false
      route;
  Bytes.blit data 0 out header dlen;
  Bytes.blit Trailer.empty 0 out (header + dlen) tlen;
  out

let build ~route ~data =
  build_with ~stamp:false ~dib:false ~priority:0 ~tailroom:0 ~route ~data

let build_stamped ~tailroom ~priority ~dib ~route ~data =
  build_with ~stamp:true ~dib ~priority ~tailroom ~route ~data

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
   is written: the reversed hops' bytes and count, the room their
   routers will append, and whether a router truncated the packet. *)
type sizing = {
  mutable bytes : int;
  mutable hops : int;
  mutable room : int;
  mutable cut : bool;
}

let size_hop b off len s =
  s.bytes <- s.bytes + Segment.reversed_hop_size b ~off ~len;
  s.hops <- s.hops + 1;
  s.room <- s.room + hop_room b ~off;
  s

let size_mark entry s =
  s.cut <- s.cut || entry = Trailer.Truncated;
  s

(* An XSR arrival's hops are return hops of flagless segments
   ({!trailer}), reversed: minimal segments with these flags. *)
let xsr_hop_bits = Segment.reversed_hop_bits (Segment.return_hop_bits 0)

let sizing t =
  let s = { bytes = 0; hops = 0; room = 0; cut = false } in
  if not t.xsr then
    Trailer.fold_in t.wire ~off:t.off ~len:t.len ~hop:size_hop ~mark:size_mark s
  else begin
    let b = xsr_wire t in
    s.hops <- Xsr.hop_idx b;
    s.bytes <- s.hops * Segment.fixed_size;
    for i = 0 to s.hops - 1 do
      if Xsr.reverse_port b i <> Segment.local_port then
        s.room <- s.room + Segment.fixed_size + 3
    done;
    s
  end

let truncated t = (sizing t).cut

(* One allocation: the trailer's hops reversed straight into it, newest
   first as the trailer walk visits them, markers skipped; then the
   local segment, the data, the empty trailer and the tailroom. *)
let reply t ~priority ~data =
  let s = sizing t in
  if s.cut then Error (Segment.Malformed "Packet.return_route: truncated")
  else if s.hops >= max_route_segments then
    Error (Segment.Malformed "Packet.reply: route too long")
  else begin
    if not (Token.Priority.valid priority) then invalid_arg "Packet.reply: priority";
    let header = s.bytes + Segment.fixed_size and tlen = Bytes.length Trailer.empty in
    let len = header + Bytes.length data + tlen in
    let out = Bytes.create (len + s.room) in
    (if t.xsr then
       let b = xsr_wire t in
       for i = 0 to s.hops - 1 do
         Segment.put_minimal out ~at:(i * Segment.fixed_size) ~bits:xsr_hop_bits
           ~port:(Xsr.reverse_port b (s.hops - 1 - i)) ~priority:(Xsr.priority b)
       done
     else
       let hop b off len at = Segment.write_reversed_hop b ~off ~len out ~at in
       let mark _ at = at in
       ignore (Trailer.fold_in t.wire ~off:t.off ~len:t.len ~hop ~mark 0));
    Segment.put_minimal out ~at:s.bytes ~port:Segment.local_port ~bits:0 ~priority;
    Bytes.blit data 0 out header (Bytes.length data);
    Bytes.blit Trailer.empty 0 out (len - tlen) tlen;
    Ok (out, len)
  end

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
    (fun (out, len) -> chain_hops (Wire.Buf.reader_window out ~off:0 ~len))
    (reply t ~priority:Token.Priority.normal ~data:Bytes.empty)

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

