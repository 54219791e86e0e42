(** VIPER priority encoding (§5 of the paper).

    The 4-bit Priority field: normal priority is 0 with 7 the highest;
    priorities 6 and 7 preempt lower-priority packets in mid-transmission;
    values with the high-order bit set are sub-normal, 0xF the lowest. *)

type t = int
(** 0x0-0xF as carried on the wire. *)

val normal : t
(** 0 *)

val highest : t
(** 7 *)

val lowest : t
(** 0xF *)

val valid : t -> bool

val rank : t -> int
(** Total order: larger rank = served first. [rank lowest = 0],
    [rank normal = 8], [rank highest = 15]. *)

val compare : t -> t -> int
(** By rank. *)

val preemptive : t -> bool
(** True for 6 and 7. *)
