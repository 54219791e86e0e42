(** Slots for per-event state kept as data.

    An event of a registered kind ({!Engine.register}) carries one int. A
    component whose event needs more keeps it in columns of its own — one
    array per field, a structure of arrays — and posts the slot that
    holds it. A slab hands out and takes back those slots; the columns
    stay the caller's, grown with {!fit} whenever {!take} grows the
    slab. Taking and releasing a slot allocate nothing once the slab has
    reached its working size (growing doubles it). *)

type t

val create : unit -> t

val capacity : t -> int
(** Slots [0 .. capacity - 1] exist; each column must be at least this
    long before a slot is written. *)

val take : t -> int
(** A free slot, growing the slab when none is left. *)

val release : t -> int -> unit
(** Return a slot taken with {!take}. The caller clears the slot's
    pointer columns first, so a released slot keeps nothing alive. *)

val fit : t -> ?per_slot:int -> 'a array -> 'a -> 'a array
(** [fit t column fill] is [column] if it covers {!capacity} slots, else
    a copy extended to them with [fill]. A column that keeps [per_slot]
    cells for each slot (default 1), slot [s]'s from [per_slot * s],
    covers [per_slot * capacity t] cells. *)
