(** Interned hierarchical name store (§3).

    A trie keyed on name components: each distinct {!Name.t} gets a dense
    integer id on first {!intern}, so directory lookups and cache keys work
    on ints (no [Name.to_string] / [Printf.sprintf] allocation per query),
    and enumerating a region ("all hosts under [edu.stanford]") is a
    subtree walk instead of a scan of every registered name. *)

type t

val create : unit -> t

val size : t -> int
(** Number of interned names (= the id space: ids are [0 .. size-1]). *)

val intern : t -> Name.t -> int
(** The name's id, assigning the next dense id on first sight. *)

val find : t -> Name.t -> int
(** Id of an already-interned name, -1 if it is not; walks the trie
    without allocating. *)

val name_of_id : t -> int -> Name.t
(** Raises [Invalid_argument] on an unknown id. *)

val bind : t -> int -> int -> unit
(** [bind t id node] attaches a graph node to an interned name. *)

val node_of_id : t -> int -> int option
(** The bound node, if any. *)

val subtree : t -> Name.t -> int list
(** Ids of every interned name at or below the prefix, sorted by name. *)
