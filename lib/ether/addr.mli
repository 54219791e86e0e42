(** 48-bit Ethernet (MAC) addresses. *)

type t
(** Abstract; compare two with {!equal}. *)

val of_int64 : int64 -> t
(** Low 48 bits are used. *)

val to_int64 : t -> int64

val of_string : string -> t
(** Parses ["aa:bb:cc:dd:ee:ff"]. Raises [Invalid_argument] otherwise. *)

val to_string : t -> string

val broadcast : t
(** ff:ff:ff:ff:ff:ff *)

val is_broadcast : t -> bool
val is_multicast : t -> bool
(** Low bit of the first octet set. *)

val equal : t -> t -> bool

val write : Wire.Buf.writer -> t -> unit
(** 6 bytes, network order. *)

val read : Wire.Buf.reader -> t

val of_host_id : int -> t
(** Deterministic locally-administered unicast address for simulated host
    [n]: convenient for wiring simulations. *)
