(** Bounded LRU map from int keys (O(1) find/set/evict) used to keep the
    directory's resident state O(configured): the memoized shortest-path
    trees and the per-query answer memo both live behind one of these,
    each keyed by one packed int.

    A capacity of 0 (or less) disables the cache entirely — {!find} always
    misses and {!set} stores nothing — giving benchmarks a "cold"
    configuration that exercises the exact same code path. *)

type 'v t

val create : ?on_evict:(int -> 'v -> unit) -> cap:int -> absent:'v -> unit -> 'v t
(** [find] returns [absent] on a miss. [on_evict] fires for every
    capacity eviction — hook eviction counters here. *)

val enabled : 'v t -> bool
val length : 'v t -> int

val find : 'v t -> int -> 'v
(** Marks the entry most-recently-used; allocates nothing. *)

val set : 'v t -> int -> 'v -> unit
(** Insert or update (marking most-recently-used); evicts the
    least-recently-used entry when over capacity. *)

val to_list : 'v t -> (int * 'v) list
(** Most recently used first. *)
