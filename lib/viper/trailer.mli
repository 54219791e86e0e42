(** The Sirpent packet trailer.

    As a packet traverses the internetwork, each router moves its (revised)
    header segment to the end of the packet, so the trailer accumulates a
    return route (§2). The paper notes a length field per moved segment
    "allowing network-independent manipulation of the header/trailer
    segments"; the exact trailer framing is left open, so this repo fixes
    it as:

    {v
      trailer      := entry* check:u8 total:u16
      entry        := segment-bytes cksum:u8 len:u16   (len = |segment-bytes|)
      trunc-marker := len:u16 = 0xFFFF                 (no segment bytes)
    v}

    [total] counts every entry byte (excluding the terminator), so the
    trailer is found from the packet end without knowing the hop count,
    and entries are walked backwards through their trailing length fields
    — exactly the network-independent reversal §2 requires. The 0xFFFF
    marker is the "special segment ... which is not a legal Sirpent header
    segment" appended when a router truncates an over-MTU packet.

    [cksum] is a seeded XOR over the entry's segment bytes and [check] the
    same over the total field. The return route is rebuilt from the
    trailer alone, so a bit error here would otherwise silently misroute
    the reply: any single-bit damage to an entry or to the framing is
    guaranteed to be rejected at parse time instead, and a truncation that
    severs the trailer cleanly cannot leave payload bytes posing as an
    empty one. *)

type entry =
  | Hop of Segment.t
  | Truncated
  | Branch
      (** A router switched the packet onto an in-header branch route at
          this point — the hops that follow are from the branch, not the
          route the sender laid down. Encoded as the reserved length value
          0xFFFE (no segment bytes), mirroring the truncation marker. *)

val empty : bytes
(** The 3-byte trailer of a freshly built packet (total = 0). *)

(** {1 Windows}

    A packet on the wire is a window [b.[off] .. b.[off + len - 1]] of a
    larger buffer (see {!Netsim.Frame}): these read and write the trailer
    ending the window in place, and every read is bounded by the window,
    so a window reads exactly as a copy of it would. *)

val size_in : bytes -> off:int -> len:int -> int
(** Total trailer size in bytes (entries + the 3-byte terminator) of the
    trailer ending the window. Raises [Invalid_argument] if the window
    does not end in a well-formed trailer. *)

val entries_in : bytes -> off:int -> len:int -> entry list
(** Entries of the trailer ending the window, in the order appended
    (first hop first). Raises on structural damage or a checksum
    mismatch. Each entry is checked and decoded in place: no entry is
    copied out first, so the only allocations are the entries
    returned. *)

val fold_in :
  bytes -> off:int -> len:int -> hop:('e -> bytes -> int -> int -> 'a -> 'a) ->
  mark:('e -> entry -> 'a -> 'a) -> 'e -> 'a -> 'a
(** [fold_in b ~off ~len ~hop ~mark env acc] folds over the trailer
    ending the window, newest entry first: [hop] gets each checked hop
    entry's segment bytes in place (buffer, offset, length), [mark] each
    marker, and both get [env] first, so a fold with top-level [hop] and
    [mark] and an unboxed accumulator builds no closure. Raises where
    {!entries_in} would. *)

val verify_in : bytes -> off:int -> len:int -> unit
(** Raises exactly when {!entries_in} would, and builds nothing. *)

val branched_in : bytes -> off:int -> len:int -> bool
(** Whether a verified trailer holds a branch marker, found without
    building its entries. *)

val append_hop : bytes -> pos:int -> Segment.t -> bytes
(** [append_hop packet ~pos seg] is the packet without its first [pos]
    bytes (the stripped leading segment), with [seg] moved onto the end
    of the trailer and the total updated — the per-router loopback
    operation on a record. One sized allocation: the remainder is blitted
    once and [seg] serialized straight after it. Raises
    [Invalid_argument] on an oversized segment, before any encoding, and
    on a damaged or overflowing trailer. *)

val append_return_hop :
  bytes -> off:int -> len:int -> pos:int -> port:int -> keep_token:bool ->
  info:bytes option -> bytes -> at:int -> int
(** [append_return_hop src ~off ~len ~pos ~port ~keep_token ~info dst ~at]
    is the per-hop operation on a window: strip the [pos]-byte leading
    segment at [off] and append its return hop
    ({!Segment.write_return_hop}) to the trailer. The result is written
    to [dst] at [at] and its length returned. Its bytes equal those of
    [append_hop (Bytes.sub src off len) ~pos return_seg], with the same
    checks in the same order. With [dst == src] and [at = off + pos] the
    hop is in place: the head advances by [pos], and only the return hop
    and the new terminator are written, over the old terminator and into
    the (return hop + 3) bytes past the window, which the caller must
    have reserved. *)

val append_marker : bytes -> off:int -> len:int -> entry -> bytes -> at:int -> int
(** [append_marker src ~off ~len marker dst ~at] writes the window with
    [marker] ({!Truncated} or {!Branch}) appended to its trailer to [dst]
    at [at], and returns its length, [len + 2]. With [dst == src] and
    [at = off] only the marker and the new terminator are written, over
    the old terminator and into the two bytes past the window. Raises [Invalid_argument]
    on a {!Hop} and on a damaged or overflowing trailer. *)
