(** Region partitioner for intra-world multicore simulation.

    Splits one topology into per-region subgraphs keyed on the region of
    node addresses. Each subgraph re-creates every node of the full graph
    (same dense ids, names and kinds) and materializes the links internal
    to its region in original connection order, so all port numbers match
    the full graph — source routes computed on the full topology stay
    valid inside any region. Links whose endpoints live in different
    regions become {e gateway links}: the only inter-shard edges, each
    wired at its original port to a proxy stub standing in for the remote
    side. The gateway's propagation delay is the physical lower bound on
    cross-shard causality and therefore the shard's lookahead; a
    zero-delay gateway link offers no lookahead and refuses to partition
    ({!Zero_latency_gateway}) — callers fall back to the serial path. *)

module G = Topo.Graph

type gateway = {
  gw_link : G.link;  (** the original full-graph link *)
  a_region : int;
  b_region : int;
  a_proxy : G.node_id;  (** in [graphs.(a_region)], stands in for side [b] *)
  b_proxy : G.node_id;  (** in [graphs.(b_region)], stands in for side [a] *)
}

type t = {
  regions : int;
  full : G.t;
  graphs : G.t array;  (** one subgraph per region, shared node ids *)
  region_of : int array;  (** node id -> region *)
  gateways : gateway array;  (** in original link order *)
}

type error =
  | Zero_latency_gateway of G.link
  | Bad_region of { node : G.node_id; region : int }
  | Unsplittable of { region : int; atoms : int }
      (** the region contracts to fewer than two atoms under its
          zero-latency links — it cannot be subdivided *)

val pp_error : Format.formatter -> error -> unit

val split : G.t -> region:(G.node_id -> int) -> (t, error) result
(** Regions must be numbered densely enough from 0 ([regions] is
    [1 + max region]); a negative region is {!Bad_region}. *)

val refine : t -> region:int -> ways:int -> (t, error) result
(** Over-decomposition: split [region] into up to [ways] sub-regions; the
    first keeps the old region number and the rest are appended after the
    current regions, so every other region's index — and any profile table
    keyed on it — is untouched. Nodes joined by zero-latency links are
    contracted into atoms first (a new gateway link needs positive
    propagation for its lookahead); atoms are LPT-packed into sub-regions
    by node count, deterministically. [ways <= 1] is a
    no-op; a single-atom region is {!Unsplittable} — callers count the
    refusal and keep the coarser partition rather than fail. *)

val by_name : G.t -> (G.node_id -> int, error) result
(** A region function read off every node's name: the integer following
    its last ["region"] or ["campus"] marker (["host7.campus2"] is in
    region 2). [Bad_region] (with [region = -1]) if any node name lacks a
    region marker. *)
