(** VIPER header segment — byte-exact implementation of Figure 1:

    {v
     0                   1
     0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5
    +---------------+---------------+
    |PortInfoLength |PortTokenLength|
    +---------------+---------------+
    |     Port      | Flags |Priori.|
    +---------------+---------------+
    >          Port Token           <
    +-------------------------------+
    >          Port Info            <
    +-------------------------------+
    v}

    The fixed 4-byte prefix carries both variable-field lengths first, "as
    far in advance as possible of the variable-length portion arriving,
    allowing for hardware setup times" (§5). A length byte of 255 means the
    true length is in the 32 bits at the start of the field. The minimum
    segment is 4 bytes. *)

type flags = {
  vnt : bool;
      (** VIPER Next Type: portInfo is void and another VIPER segment
          follows this one. *)
  dib : bool;  (** Drop If Blocked. *)
  rpf : bool;
      (** Reverse Path Forwarding: the packet is returning over a route
          supplied in a received packet's trailer. *)
}

type t = {
  port : int;  (** output port at the router this segment addresses; 0 = local *)
  flags : flags;
  priority : Token.Priority.t;
  token : bytes;  (** port token; empty = absent *)
  info : bytes;  (** network-specific portInfo; empty = void *)
  branch : bytes;
      (** Slick-Packets-style alternate route (encoded segment list) the
          router may substitute for the remainder of the route when the
          addressed output port's link is down; empty = none. On the wire,
          flag bit 0x1 ("branch route follows", BRF) is set iff non-empty
          and a [u16 length + bytes] field follows portInfo — a branchless
          segment encodes byte-identically to the legacy format. *)
}

(** Flags are shared immutable values: the eight VNT/DIB/RPF
    combinations live in one table, built once, and every segment read
    off the wire, every return hop ({!return_hop}) and {!no_flags} is
    one of them. Compare flags structurally, as ever; the codec never
    allocates them. *)

val no_flags : flags

val make :
  ?flags:flags -> ?priority:Token.Priority.t -> ?token:bytes -> ?info:bytes ->
  ?branch:bytes -> port:int -> unit -> t
(** Raises [Invalid_argument] for a port outside 0-255, an invalid
    priority, or a field longer than {!max_field}. *)

val route_hop : dib:bool -> priority:Token.Priority.t -> token:bytes -> port:int -> t
(** {!make} with only DIB possibly set, and no optional argument to box. *)

val return_hop : t -> port:int -> token:bytes -> info:bytes -> t
(** [return_hop seg ~port ~token ~info] is [seg] revised into the return
    hop a router appends to the trailer: [port] and the given [token]
    and [info], no branch, priority kept, flags by {!return_hop_bits}.
    Validates like {!make}; the flags come from the shared table. *)

val return_hop_bits : int -> int
val reversed_hop_bits : int -> int
(** A return hop's flags nibble (VNT 0x8, DIB 0x4, RPF 0x2, BRF 0x1)
    from its segment's; nothing else sets RPF. At strip time: DIB kept,
    RPF set. Reversed into a reply's route: DIB and BRF kept, RPF and VNT
    set. *)

val local_port : int
(** 0 — "reserving 0 as a special port value meaning 'local'" (§5). *)

val broadcast_port : int
(** 255: we reserve the top port value to mean "all ports" (§2,
    multicast mechanism 1). Ordinary ports are 1-239. *)

val multicast_port_first : int
(** 240. Ports 240-254 name router-configured port groups. *)

val is_multicast_port : int -> bool
(** True for 240-255. *)

val fixed_size : int
(** 4 bytes. *)

val max_field : int
(** Largest token/info field supported (65535 bytes, using extended
    lengths). *)

val encoded_size : t -> int

val write : Wire.Buf.writer -> t -> unit
(** Writes the segment's own flags, VNT included. *)

val put_minimal :
  bytes -> at:int -> port:int -> bits:int -> priority:Token.Priority.t -> unit
(** Write at [dst.[at]] the 4 bytes of a segment with no token, info or
    branch: [port], the flags nibble [bits] and [priority]. *)

val write_route : Wire.Buf.writer -> last_vnt:bool -> t list -> unit
(** Write a segment list with VNT taken from position, not from the
    records: set on every segment but the last, and on the last iff
    [last_vnt] (a splice whose expansion stands in for a VNT segment).
    This is the only place VNT is set by position; no caller rebuilds a
    record to set the bit. *)

val put_route_stamped :
  bytes -> pos:int -> dib:bool -> priority:Token.Priority.t -> t list -> unit
(** [write_route ~last_vnt:false] straight into [dst] at [pos] (no
    writer), with every segment's DIB and priority replaced by [dib] and
    [priority] on the wire — a host stamping its send options onto a
    route it holds. The caller sizes [dst]. *)

val read : Wire.Buf.reader -> t
(** Raises [Wire.Buf.Underflow] on truncated input. *)

val extent_to : bytes -> off:int -> stop:int -> int
(** [extent_to b ~off ~stop] is the number of bytes {!read} would
    consume reading the segment at [off] from a window that ends at
    [stop] — found from the length fields, no field copied, nothing
    allocated. It raises wherever such a read raises
    ([Wire.Buf.Underflow] on truncation, [Failure] on an empty branch),
    so a caller can skip or peek past a segment with exactly [read]'s
    verdict. *)

val encode : t -> bytes
val decode : bytes -> t
(** [decode] requires the buffer to contain exactly one segment. *)

val decode_sub : bytes -> off:int -> len:int -> t
(** [decode_sub b ~off ~len] is [decode (Bytes.sub b off len)] read in
    place through a reader window: only the fields handed out are
    copied. *)

(** {1 Non-raising parse}

    Routers sit on the corruption path: a damaged frame must become a
    counted drop, never an exception out of the frame handler. *)

type error =
  | Truncated  (** input ended mid-field *)
  | Malformed of string  (** structurally invalid bytes *)

val peek_port : bytes -> off:int -> int
(** The port field without a full parse — the field order exists precisely
    so "the router can make the switching decision while the
    typeOfService, portToken and portInfo fields are being received". *)

val peek_vnt : bytes -> off:int -> bool
(** The VNT flag of the segment at [off], read in place: whether another
    VIPER segment follows it. *)

(** {1 In place}

    A router reads the leading segment where it lies in the packet and
    writes its return hop straight into the trailer: no record is built.
    These readers expect a segment whose {!extent_to} has been found. *)

val peek_flags : bytes -> off:int -> flags
(** One of the shared flag records. *)

val peek_priority : bytes -> off:int -> Token.Priority.t
val peek_branch : bytes -> off:int -> bool
(** Whether a branch route follows the segment's portInfo. *)

val token_len : bytes -> off:int -> int
(** The port token's length: 0 when absent. *)

val token_off : bytes -> off:int -> int
(** Where the port token's bytes start in the buffer, so that it can be
    read where it lies. *)

val return_hop_size :
  bytes -> off:int -> port:int -> keep_token:bool -> info:bytes option -> int
(** The encoded size of the return hop {!write_return_hop} writes for
    the segment at [off]. Raises [Invalid_argument] where {!return_hop}
    would. *)

val write_return_hop :
  bytes -> off:int -> port:int -> keep_token:bool -> info:bytes option ->
  bytes -> at:int -> unit
(** [write_return_hop b ~off ~port ~keep_token ~info dst ~at] writes into
    [dst] at [at] exactly the {!return_hop_size} bytes
    [write (return_hop seg ~port ~token ~info:info')] would, where [seg]
    is the segment at [off], [token] is its token when [keep_token] (else
    none) and [info'] is [info] when given. Otherwise [info'] is the
    segment's own portInfo revised so that it "constitutes a correct
    return hop through this router" (§2): an Ethernet portInfo
    ({!Ether.Frame.header_size} bytes) gets its addresses swapped, any
    other is carried back unchanged. The destination must not overlap the
    segment. *)

val reversed_hop_size : bytes -> off:int -> len:int -> int
val write_reversed_hop : bytes -> off:int -> len:int -> bytes -> at:int -> int
(** Write the checked [len]-byte trailer entry at [off] as a reply
    route's hop at [dst.[at]], and return its end: the
    {!reversed_hop_size} bytes {!write} makes of the decoded segment
    with flags by {!reversed_hop_bits}. *)

val equal : t -> t -> bool
