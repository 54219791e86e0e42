(** Hierarchical character-string names (§3).

    "With Sirpent, the hierarchical character-string names serve as the
    unique hierarchical identifiers for hosts, gateways and networks" —
    there is no separate address space. Names are dotted, most significant
    first: ["edu.stanford.cs.host3"]. The region of a name is its parent
    prefix (["edu.stanford.cs"]), mirroring how naming and routing domains
    coincide administratively. *)

type t = string list
(** Components, most significant first; never empty. *)

val of_string : string -> t
(** Raises [Invalid_argument] on empty input or empty components. *)

val to_string : t -> string
val region : t -> t
(** Parent prefix; the root's region is itself. *)

val depth : t -> int

val hierarchy_distance : t -> t -> int
(** Levels a resolution walks between the two names' regions: up from one
    region to the common ancestor and down to the other. 0 for the same
    region. *)
