(** Bounded LRU map (O(1) find/set/evict) used to keep the directory's
    resident state O(configured): the memoized shortest-path trees and the
    per-query answer memo both live behind one of these.

    A capacity of 0 (or less) disables the cache entirely — {!find} always
    misses and {!set} stores nothing — giving benchmarks a "cold"
    configuration that exercises the exact same code path. *)

type ('k, 'v) t

val create : ?on_evict:('k -> 'v -> unit) -> cap:int -> unit -> ('k, 'v) t
(** [on_evict] fires for every capacity eviction — hook eviction
    counters here. *)

val enabled : ('k, 'v) t -> bool
val length : ('k, 'v) t -> int

val find : ('k, 'v) t -> 'k -> 'v option
(** Marks the entry most-recently-used. *)

val set : ('k, 'v) t -> 'k -> 'v -> unit
(** Insert or update (marking most-recently-used); evicts the
    least-recently-used entry when over capacity. *)
