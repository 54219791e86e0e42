(** Building VIPER source routes from topology paths.

    Given the hop list a path algorithm (or the directory service) returns,
    produce the header segments the packet must carry: one per router
    traversed plus the final local-delivery segment at the destination.
    The first hop is the source host's own transmission port, which is not
    a header segment — "on transmission, a Sirpent packet has an initial
    header segment that corresponds to the type of network on which it is
    being transmitted", i.e. it is implicit in where the host sends. *)

type t = {
  first_port : Topo.Graph.port;  (** the source host's output port *)
  segments : Viper.Segment.t list;
      (** router segments then the local segment; never empty *)
}

val of_hops :
  ?priority:Token.Priority.t -> ?drop_if_blocked:bool ->
  ?tokens:bytes list ->
  Topo.Graph.t -> src:Topo.Graph.node_id -> Topo.Graph.hop list -> t
(** [of_hops g ~src hops] for a path produced by
    {!Topo.Graph.shortest_path} (whose first hop is at [src]).
    [tokens], when given, are attached to the router segments in order
    (missing entries default to no token). Raises [Invalid_argument] if
    [hops] is empty or does not start at [src]. *)

val hop_count : t -> int
(** Routers traversed (segments excluding the final local one). *)

val ports : t -> int list
(** The per-router out-port sequence (the final local segment dropped) —
    the port list {!Viper.Xsr.encode} folds into its lanes. *)

val header_overhead : t -> int
(** Total encoded size of all segments. *)

val equal : t -> t -> bool
(** Structural equality: same first port and segment-for-segment equal
    (ports, flags, priorities, tokens, info, branches). *)
