(** VMTP-style transport packet format (§4).

    The transport must stand alone on top of Sirpent: 64-bit entity
    identifiers unique independently of the network layer (misdelivery
    defense, §4.1), a 32-bit millisecond creation timestamp in the packet
    {e trailer} "along with the checksum" (MPL enforcement, §4.2), and
    packet groups with a 32-bit delivery mask for selective retransmission
    (§4.3).

    Layout (all big-endian):
    {v
      header (28 B): src_entity:u64 dst_entity:u64 transaction:u32
                     kind:u8 index:u8 group_size:u8 flags:u8
                     delivery_mask:u32
      data   (total - 28 - 8 bytes)
      trailer (8 B): timestamp_ms:u32 checksum:u16 pad:u16
    v}

    The checksum is the Internet ones-complement sum over the whole packet
    with the checksum field zeroed. Timestamp 0 means "invalid, ignore"
    (§4.2: for booting machines).

    A packet is written from a window of the sender's message straight
    into the buffer that carries it ({!encode_into}): for
    {!Vmtp.Entity}, on each transmission, the data area of the wire
    buffer its host reserved ({!Sirpent.Host.reserve}). It is read where
    it lies: each header
    field is read in place, the checksum is verified without copying or
    writing the buffer, and the data is the window from {!header_size}
    to [length - ]{!trailer_size} ({!data_len} bytes).

    {b Ownership.} The encoders only read the message window
    [data.[off] .. data.[off + len - 1]], and only while they run: the
    packet shares no bytes with it, so the sender may reuse its buffer
    as soon as the call returns. The packet's bytes belong to the
    buffer's owner. The readers below take a packet that is a whole
    buffer of its own (an arrival's {!Viper.Packet.data}), read it only
    while they run, and keep nothing. *)

type kind =
  | Request
  | Response
  | Ack  (** delivery-mask report (a gap nack or completion ack) *)

val header_size : int
val trailer_size : int
val max_group : int
(** 32 — one bit per packet in the delivery mask. *)

val encode_into :
  bytes -> at:int -> src:int64 -> dst:int64 -> txn:int -> kind:kind -> index:int ->
  group_size:int -> acks_response:bool -> mask:int -> timestamp_ms:int -> bytes ->
  off:int -> len:int -> unit
(** [encode_into b ~at ... data ~off ~len] writes one packet carrying
    [len] bytes of [data] from [off] at [b.[at]]: the
    [header_size + len + trailer_size] bytes from [at], with a correct
    trailer checksum, whose byte weights count from the packet's start
    (so [at] may be odd). No byte of [b] outside the packet is written.
    [index] is the packet's place in its group (0-31) and [group_size]
    the group's packet count (1-32); [txn], [mask] (the delivery mask)
    and [timestamp_ms] are written as their low 32 bits. [acks_response]
    marks an [Ack] reporting on a Response group (else a Request group).
    Raises [Invalid_argument] on an index or group size out of range, or
    a packet that does not fit [b] at [at]. *)

val encode :
  src:int64 -> dst:int64 -> txn:int -> kind:kind -> index:int -> group_size:int ->
  acks_response:bool -> mask:int -> timestamp_ms:int -> bytes -> off:int -> len:int ->
  bytes
(** {!encode_into} a fresh buffer of exactly the packet's size. *)

val valid : bytes -> bool
(** Long enough for a header and trailer, of a known kind, and with a
    correct checksum: what an arrival must be before any field is
    read. *)

val checksum_ok : bytes -> bool
(** The checksum field matches the packet, the field read as zero.
    False on a packet too short for a header and trailer. *)

(** {2 Fields, read in place from a {!valid} packet} *)

val src_entity : bytes -> int64
val dst_entity : bytes -> int64
val transaction : bytes -> int
val kind : bytes -> kind
val index : bytes -> int
val group_size : bytes -> int
val acks_response : bytes -> bool
val delivery_mask : bytes -> int
val timestamp_ms : bytes -> int

val data_len : bytes -> int
(** The data's length; it starts at {!header_size}. *)

(** {2 Delivery masks} A mask is an [int] holding 32 bits, bit [i] for
    packet [i] of a group. *)

val mask_with : int -> int -> int
val mask_has : int -> int -> bool
val mask_full : int -> int
(** All of the first [n] bits set. *)
