(** Whole-packet assembly and the per-hop byte operations of §2.

    A Sirpent packet on the wire is

    {v  [seg_1] ... [seg_k]  [data]  [trailer]  v}

    where [seg_i] has the VNT flag set for i < k (another VIPER segment
    follows) and [seg_k] addresses final delivery. Routers strip [seg_1],
    move a revised copy onto the trailer, and forward; the receiver builds
    the return route from the trailer with no routing knowledge. *)

type t = private {
  data : bytes;  (** a copy of the data *)
  wire : bytes;
  off : int;
  len : int;
      (** the packet as it arrived: the window
          [wire.[off] .. wire.[off + len - 1]], read in place when the
          route or trailer is asked for *)
  xsr : bool;  (** the window holds an XSR packet ({!of_xsr}) *)
}
(** An arrived packet: its data, and the bytes it arrived in. Nothing
    writes a packet's buffer after it has arrived (see {!Netsim.Frame}),
    so a receiver may keep a [t] and decode its route or trailer
    later. *)

val route : t -> Segment.t list
(** The remaining header segments, first hop first; non-empty. *)

val trailer : t -> Trailer.entry list
(** The trailer entries, in the order appended (first hop first). *)

val terminates : t -> bool
(** The route is exactly one local-delivery segment (or the packet is an
    XSR packet {!Xsr.step} delivered): the packet has reached its
    destination. Read in place. *)

val truncated : t -> bool
(** The trailer records that a router truncated this packet. *)

val took_branch : t -> bool
(** The trailer records that a router switched this packet onto an
    in-header branch route mid-flight (the Slick-Packets failover path).
    The return route is still valid — it is the path actually taken. *)

val max_transmission_unit : int
(** 1500 bytes — "The VIPER transmission unit is 1500 bytes" (§5). *)

val max_route_segments : int
(** 48 — §2.3's worked scaling example. *)

val build : route:Segment.t list -> data:bytes -> bytes
(** Encode a fresh packet (empty trailer). VNT is written from position
    ({!Segment.write_route}): set on every segment except the last,
    whatever the records say. The packet is one exact-size allocation,
    the route written straight into it; no normalized list is built and
    nothing is copied out. Raises [Invalid_argument] on an empty route or
    more than {!max_route_segments} segments. *)

val tailroom : Segment.t list -> int
(** The bytes the routers on [route] append to its trailer, at most: a
    return hop and its entry framing for every segment that does not
    deliver locally. A buffer with this much room past the packet is
    never copied on the way (see {!Trailer.append_return_hop}). *)

val tailroom_in : bytes -> off:int -> len:int -> int
(** {!tailroom} of the route at the head of the window
    [b.[off] .. b.[off + len - 1]], read off its VNT chain in place: the
    room a router gives the fresh window it copies a packet into. A chain
    that stops parsing needs no more room, since it will be dropped. *)

val reserve_stamped :
  tailroom:int -> priority:Token.Priority.t -> dib:bool -> route:Segment.t list ->
  len:int -> bytes
(** The buffer a host sends a packet of [len] data bytes in, before the
    data is written: the route written as {!build} writes it, with every
    segment's priority and DIB replaced on the wire by [priority] and
    [dib] (a host's send options), then [len] bytes left for the data,
    then the empty trailer, then [tailroom] spare bytes, in one
    allocation. The data goes in the [len] bytes that end where the
    trailer starts, [tailroom + 3] bytes before the buffer's end; the
    wire bytes are all but the last [tailroom]. Raises like {!build}. *)

val build_stamped :
  tailroom:int -> priority:Token.Priority.t -> dib:bool -> route:Segment.t list ->
  data:bytes -> bytes
(** {!reserve_stamped} with [data] blitted into its room. *)

(** {1 Non-raising parse}

    The hardened packet path: anything handling bytes that crossed a lossy
    link uses these, so corruption becomes a counted drop rather than an
    exception unwinding the simulator. *)

type nonrec error = Segment.error = Truncated | Malformed of string

val of_window : bytes -> off:int -> len:int -> (t, error) result
(** The arrival check, in place on the window
    [b.[off] .. b.[off + len - 1]]: the route's VNT chain (at most
    {!max_route_segments} segments), the trailer's structure and every
    entry's checksum, and the data between them. Only the data is copied.
    Never raises. *)

val parse : bytes -> (t, error) result
(** {!of_window} over the whole buffer. *)

val intact : bytes -> off:int -> len:int -> bool
(** Whether {!of_window} would be [Ok]: the same checks, and nothing is
    copied or built. *)

val reserve_reply :
  t -> priority:Token.Priority.t -> len:int -> (bytes * int, error) result
(** The buffer of the packet answering [t] over the route its trailer
    recorded, with room for [len] data bytes, and where that room
    starts. The route is the trailer's hops (for XSR, the reverse
    lanes), newest first, each written from its bytes
    ({!Segment.write_reversed_hop}), markers skipped, then local
    delivery at [priority]: the bytes {!build} makes of it. The [len]
    bytes from the returned offset are left for the data, the empty
    trailer follows them, and past it the buffer holds the route's
    {!tailroom}. The trailer is folded twice in place, once to size the
    buffer and once to write it; the buffer and the returned pair are
    all it allocates. [Error] when a router truncated [t], or when the
    route would exceed {!max_route_segments}: a damaged trailer never
    becomes a bogus route. *)

val reply :
  t -> priority:Token.Priority.t -> data:bytes -> (bytes * int, error) result
(** {!reserve_reply} with [data] blitted into its room: the packet and
    its length. *)

val return_route_r : t -> (Segment.t list, error) result
(** The hops of {!reserve_reply}'s route, decoded from the bytes it writes:
    newest first, RPF set, VNT set on every hop but the last. [Error]
    where {!reply} is. *)

val forward : bytes -> return_seg:Segment.t -> Segment.t * bytes
(** The complete per-hop operation on a record: strip the leading
    segment, append [return_seg] to the trailer ({!Trailer.append_hop}),
    and return [(stripped, forwarded_bytes)]. [return_seg] is the
    stripped segment revised by the caller (return port, swapped network
    info, RPF set). Routers use the window form,
    {!Trailer.append_return_hop}. *)

val encode_route_segments : Segment.t list -> bytes
(** Encode a segment list alone (no data, no trailer), VNT from position
    as in {!build} — the representation carried in a segment's [branch]
    field. One exact-size allocation. Raises like {!build} on an empty or
    over-long route. *)

val substitute_route : bytes -> route:bytes -> bytes
(** [substitute_route packet ~route] replaces the packet's entire
    remaining route (the leading VNT chain) with the pre-encoded segment
    bytes [route], keeping data and trailer untouched — the router-local
    failover step when the addressed link is down and the leading segment
    carries a branch. Raises on malformed input. *)

val substitute_route_branch : bytes -> off:int -> len:int -> route:bytes -> bytes
(** [substitute_route_branch b ~off ~len ~route] is {!substitute_route}
    of the window [b.[off] .. b.[off + len - 1]] with a {!Trailer.Branch}
    marker appended, in one sized allocation — the complete failover
    step: splice the branch over the remaining route and record the
    switch in the trailer. The window is not written. *)

val of_xsr : bytes -> t
(** An arrived XSR packet as a [t]: its route is local delivery and its
    trailer the return hops its reverse lanes recorded
    ({!Xsr.reverse_ports}), oldest first. {!reply} on the result rides
    the recorded path back, so a receiver replies over VIPER without
    knowing the packet arrived as XSR. The header is not verified: call
    it on a packet {!Xsr.step} answered [Deliver] for. *)

val truncate_to : bytes -> off:int -> len:int -> max:int -> bytes
(** Model of cut-through truncation at an MTU boundary: keep the first
    [max] bytes of the window [b.[off] .. b.[off + len - 1]] (discarding
    any partial trailer) and append a fresh trailer holding only the
    truncation marker, so the receiver detects the loss "even when it
    only affects the packet trailer" (§2). The result is one fresh
    buffer of [max + 5] bytes: a router cutting a packet to fit an MTU
    keeps [mtu - 5]. A window of at most [max] bytes is returned as its
    own bytes. *)

val next_port : bytes -> off:int -> len:int -> int
(** The port the next router will forward on, read in place from the
    packet in the window [b.[off] .. b.[off + len - 1]], or [-1]. For an
    XSR packet ({!Xsr.is_xsr_in}) it is {!Xsr.next_port}. Otherwise it
    is the leading segment's port when that segment, and the one after
    it if VNT says one follows, would {!Segment.read} without raising
    (found with {!Segment.extent_to}); [-1] when either would raise.
    Upstream routers key rate-control limiters by it on every act step:
    the source route makes the next-hop queue visible without any
    per-flow state (§2.2). It copies no field and catches only the
    codec's exceptions. *)

val total_header_overhead : route:Segment.t list -> int
(** Sum of encoded segment sizes: the source-routing header cost used by
    the E4/E5 overhead experiments. *)
