(** Exact-size bucketed buffer arena.

    When buffer sizes recur, a free list per exact size makes
    steady-state allocation free: [alloc] pops a retained buffer when
    one of that size exists and falls back to [Bytes.create] otherwise.
    Buffers come back dirty — callers must overwrite every byte they
    expose. The simulator's packet path does not use it (it measured as
    a trade-off, not a win; see DESIGN.md §14).

    Ownership is linear: whoever receives a buffer owns it, and must
    [release] it at most once, only when no live reference remains.
    The pool keeps its own hit/miss counters. Not thread-safe. *)

type t

val create : ?max_held:int -> unit -> t
(** [create ()] is an empty pool. [max_held] (default 64) caps the
    number of buffers retained per exact size; releases beyond the cap
    are dropped to the GC. *)

val alloc : t -> int -> bytes
(** [alloc t n] is a buffer of exactly [n] bytes — reused (dirty) when
    available, fresh otherwise. *)

val release : t -> bytes -> unit
(** Return a buffer to the pool. The caller must hold the only live
    reference; releasing a buffer that is still reachable elsewhere
    corrupts later packets. *)

type stats = { hits : int; misses : int; releases : int; discarded : int }

val stats : t -> stats
