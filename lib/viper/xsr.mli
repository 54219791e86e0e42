(** XOR source routing: a constant-size-header forwarding mode.

    Where VIPER carries an explicit segment list that shrinks at every
    hop (and a trailer that grows), XSR folds the whole port sequence
    into one fixed-width field of XOR-masked lanes (after Lacan &
    Lochin). A router's entire forwarding step is one check-byte verify,
    one XOR + port extract, and an in-place header mutation — the buffer
    is forwarded without copy and bytes-on-wire are constant in hop
    count: [header_size] + data, versus VIPER's per-segment header plus
    per-hop trailer growth.

    The reverse route accumulates in a second lane field the same way
    the VIPER trailer accumulates return segments: each router folds its
    in-port into lane [hop_idx], and the destination unfolds the exact
    reverse port sequence with {!reverse_ports}: a reply rides it over
    VIPER ({!Packet.reply}).

    The check byte is a seeded XOR over the header and both lane fields,
    so any single-bit flip anywhere in the XSR header is detected at the
    next hop (XOR is linear) — corruption becomes a counted drop, never
    a misroute, matching the trailer-checksum guarantee of the VIPER
    path. Data bytes are not covered, exactly as in VIPER. *)

val width : int
(** Lane count (8): the maximum number of router hops one header can
    carry. *)

val header_size : int
(** Constant header size in bytes (22). *)

val is_xsr_in : bytes -> off:int -> len:int -> bool
(** Cheap wire-format sniff (magic + version byte) of the window
    [b.[off] .. b.[off + len - 1]]. A VIPER packet whose first segment
    happened to declare [info_len = 0xD5] and [token_len = 0xE0|x] would
    collide; no workload in this repo emits such segments, and
    dual-stack routers sniff XSR first. *)

val encode : ?priority:Token.Priority.t -> ports:int list -> data:bytes -> unit -> bytes
(** Fold [ports] (the per-router out-ports, 1..{!width} of them, final
    local delivery implicit) and [data] into a fresh XSR packet.
    Raises [Invalid_argument] on an empty or over-long port list. *)

val encode_segments :
  priority:Token.Priority.t -> segments:Segment.t list -> data:bytes -> bytes
(** [encode ~priority ~ports ~data ()] where [ports] are the ports of
    [segments] but the last (the route's local-delivery segment), read
    off the list without building another. *)

type step =
  | Forward of int  (** send on this out-port; the buffer was advanced in place *)
  | Deliver  (** [hop_idx = hop_count]: this node is the destination *)
  | Malformed of string  (** verification failed; the buffer is untouched *)

val step : bytes -> in_port:int -> step
(** The per-hop operation: verify the check byte, then either deliver or
    extract the next out-port while folding [in_port] into the reverse
    lanes — mutating [b] in place so the caller forwards the very same
    buffer. Verification happens before any mutation. *)

val next_port : bytes -> int
(** The out-port the next router will extract (lane [hop_idx]), or [-1]
    at the destination — the queue key a congestion limiter needs, which
    {!Packet.next_port} reads through this for an XSR packet. *)

val reverse_ports : bytes -> int list
(** In-ports recorded so far, most recent hop first — the port sequence
    a reply must traverse (the XSR analogue of the VIPER return
    route). *)

val reverse_port : bytes -> int -> int
(** The in-port reverse lane [i] recorded, for [i] below {!hop_idx}. *)

(** {1 Header accessors} *)

val priority : bytes -> Token.Priority.t
val hop_count : bytes -> int
val hop_idx : bytes -> int
val data : bytes -> bytes
