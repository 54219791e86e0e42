(** A link-state interior routing protocol for the IP baseline (the
    "standard IP routing algorithms such as link state routing which store
    the entire internetwork topology", §2.3).

    Routers exchange hellos per port for neighbor liveness, flood link-state
    advertisements on change, hold the full topology in a link-state
    database, and run Dijkstra to build a next-hop table. The state each
    router carries is proportional to the whole internetwork — the scaling
    contrast with a Sirpent router measured by experiment E12. *)

type config = { hello_interval : Sim.Time.t }

val default_config : config
(** 1 s hellos. A neighbor is dead after {!dead_factor} missed hellos,
    the SPF recompute waits 10 ms after an LSDB change, and an LSA is
    24 B plus 12 B per neighbor (hellos are 20 B). *)

val dead_factor : int
(** Missed hellos before a neighbor is declared down: 3. *)

type lsa = {
  origin : Topo.Graph.node_id;
  seq : int;
  neighbors : (Topo.Graph.node_id * float) list;  (** (neighbor, cost) *)
}

type Netsim.Frame.meta +=
  | Hello of Topo.Graph.node_id
  | Lsa_flood of lsa

type t

val create : Netsim.World.t -> node:Topo.Graph.node_id -> config -> t

val start : t -> unit
(** Originate the initial LSA, begin hello and liveness timers. *)

val handle_meta :
  t -> in_port:Topo.Graph.port -> Netsim.Frame.meta -> bool
(** Process a routing-protocol frame; false if the meta is not ours. *)

val next_hop : t -> dst:Topo.Graph.node_id -> Topo.Graph.port option
(** Current forwarding decision. [None] while unreachable/not yet
    converged. *)

val lsdb_entries : t -> int
val lsdb_bytes : t -> int
(** Estimated stored topology bytes — the O(topology) router state. *)
