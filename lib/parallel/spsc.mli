(** An unbounded single-producer single-consumer channel between domains.

    Exactly one domain may push and one may drain (they can be the same
    domain — the serial shard path uses it that way). Lock-free: a
    linked list of fixed-size segments, with one atomic count shared
    between the two sides; a push allocates only its share of a
    segment. A push never waits, so a producer can never
    deadlock against a consumer that only it could wake or drain. *)

type 'a t

val create : unit -> 'a t

val push : 'a t -> 'a -> unit
(** Producer side only. *)

val drain : 'a t -> ('a -> unit) -> unit
(** Apply the function to every message pushed before the call, in push
    order. Consumer side only. *)

val is_empty : 'a t -> bool
(** Consumer-side view; exact once the producers' promises rule out
    further sends (the conservative driver's termination check). *)
