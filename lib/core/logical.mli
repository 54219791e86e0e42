(** Logical hops and logical links (§2.2).

    A port identifier can designate "a group of links that are all
    equivalent from the standpoint of the Sirpent source" — either a
    replicated trunk (the router picks a physical link by local load) or a
    multi-hop transit path (the router splices a stored expansion route in
    place of the logical segment, "at the cost of the packet delay of
    adding this routing information"). *)

type mapping =
  | Group of Topo.Graph.port list
      (** replicated trunk: equivalent physical ports *)
  | Splice of Viper.Segment.t list
      (** logical hop: segments substituted for the logical segment *)

type t

val create : unit -> t
val set : t -> port:int -> mapping -> unit
(** Raises [Invalid_argument] for an empty group/splice or a negative
    port. *)

val lookup : t -> port:int -> mapping option
(** An array read: the router asks for every frame it switches. *)
