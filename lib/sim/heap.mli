(** Binary min-heap keyed by [(time, sequence)].

    The sequence number makes event ordering total and FIFO among
    simultaneous events, which keeps simulations deterministic.

    The order lives in three [int] arrays — time, seq and the entry's
    slot — and what each entry carries sits out of line at its slot: a
    value ({!push}), or two ints, a kind and a payload ({!push_ints}),
    kept in two more [int] arrays. A sift moves only unboxed ints and
    never runs the write barrier: a value push stores its value once and
    a pop clears it once, and an int entry stores no pointer at all (the
    engine's event queue is made of these). No operation but a push that
    outgrows the arrays (it doubles them) allocates. Vacated value slots
    are reset to the [dummy] given at creation, so the heap never retains
    a reference to a value it no longer holds. *)

type 'a t

val create : dummy:'a -> 'a t
(** [dummy] fills every value slot that holds no element. *)

val is_empty : 'a t -> bool
val size : 'a t -> int

val clear : 'a t -> unit
(** Drop every element, keeping the arrays for reuse. *)

val push : 'a t -> time:int -> seq:int -> 'a -> unit

val push_ints : 'a t -> time:int -> seq:int -> kind:int -> payload:int -> unit
(** Push an entry that carries two ints and no value (its value slot
    keeps the dummy). Read them back with {!min_kind}/{!min_payload}
    and remove the entry with {!pop}. *)

val min_time : 'a t -> int
(** Time of the smallest element. Raises [Invalid_argument] when empty. *)

val min_seq : 'a t -> int
(** Sequence number of the smallest element. Raises [Invalid_argument]
    when empty. *)

val min_kind : 'a t -> int
(** The kind of the smallest element, which must have been pushed with
    {!push_ints}. Raises [Invalid_argument] when empty. *)

val min_payload : 'a t -> int
(** The payload of the smallest element, as {!min_kind}. *)

val pop : 'a t -> unit
(** Remove the smallest element without reading or clearing its value
    slot: for an entry pushed with {!push_ints}. Raises
    [Invalid_argument] when empty. *)

val pop_value : 'a t -> 'a
(** Remove the smallest element and return its value (read its key with
    {!min_time}/{!min_seq} first). Raises [Invalid_argument] when
    empty. *)
