(** Binary min-heap keyed by [(time, sequence)].

    The sequence number makes event ordering total and FIFO among
    simultaneous events, which keeps simulations deterministic.

    The order lives in three [int] arrays — time, seq and the value's
    slot — and the values out of line in a fourth, so a sift moves only
    unboxed ints and never runs the write barrier: a push stores its
    value once, a pop clears it once. {!push}, {!min_time}, {!min_seq}
    and {!pop_value} allocate nothing (a push that outgrows the arrays
    doubles them). Vacated value slots are reset to the [dummy] given at
    creation, so the heap never retains a reference to a value it no
    longer holds. *)

type 'a t

val create : dummy:'a -> 'a t
(** [dummy] fills every value slot that holds no element. *)

val is_empty : 'a t -> bool
val size : 'a t -> int

val clear : 'a t -> unit
(** Drop every element, keeping the arrays for reuse. *)

val push : 'a t -> time:int -> seq:int -> 'a -> unit

val min_time : 'a t -> int
(** Time of the smallest element. Raises [Invalid_argument] when empty. *)

val min_seq : 'a t -> int
(** Sequence number of the smallest element. Raises [Invalid_argument]
    when empty. *)

val pop_value : 'a t -> 'a
(** Remove the smallest element and return its value (read its key with
    {!min_time}/{!min_seq} first). Raises [Invalid_argument] when
    empty. *)
