(** Internetwork topology: nodes with numbered ports joined by links.

    Port numbering follows VIPER (§5 of the paper): port 0 means "local
    delivery", so real ports are numbered from 1 and a node has at most 255
    ports — larger fan-outs must be built as a hierarchy of nodes, exactly
    as the paper prescribes. *)

type node_id = int
type port = int

type node_kind = Host | Router

type link_props = {
  bandwidth_bps : int;  (** link data rate, bits per second *)
  propagation : Sim.Time.t;  (** one-way propagation delay *)
  mtu : int;  (** maximum frame payload carried, bytes *)
}

type link = {
  link_id : int;
  a : node_id;
  a_port : port;
  b : node_id;
  b_port : port;
  props : link_props;
}

type t

val create : unit -> t

val add_node : t -> ?name:string -> node_kind -> node_id
(** Node ids are dense, starting at 0. *)

val node_count : t -> int
val kind : t -> node_id -> node_kind
val name : t -> node_id -> string
(** Defaults to ["h<id>"] or ["r<id>"]. *)

val find_by_name : t -> string -> node_id option

val connect : t -> node_id -> node_id -> link_props -> port * port
(** [connect g a b props] joins [a] and [b] with a new link, assigning the
    next free port (from 1) on each side; returns [(a_port, b_port)].
    Raises [Failure] if either node already has 255 ports. *)

val disconnect : t -> link -> unit
(** Remove a link (models link failure at the topology level). The ports it
    used are not reassigned. *)

val reconnect : t -> link -> unit
(** Re-attach a previously disconnected link on its original ports (models
    link repair, enabling flapping-link fault injection). A no-op if either
    port is occupied or the link was never disconnected. Once every cut
    link is back, the graph is indistinguishable from one never cut: the
    link returns to its link-id position in {!links}, and its ends' port
    tables are rebuilt in port order, so {!ports} and every shortest path
    (ties included) are those of the untouched graph. *)

val link_alive : t -> link -> bool
(** Whether this exact link is currently attached. O(1). *)

val link_via : t -> node_id -> port -> link option
(** The link attached to this node's port, if any. O(1): an array read. *)

val link_at : t -> node_id -> port -> link
(** {!link_via} for per-frame paths: the same O(1) lookup without the
    option box; allocates nothing. Raises [Not_found] when the port has
    no link. *)

val peer : link -> node_id -> node_id * port
(** [peer l n] is the other endpoint [(node, its port)]. Raises
    [Invalid_argument] if [n] is on neither side. *)

val ports : t -> node_id -> (port * link) list
(** All connected ports of a node, ascending port order. *)

val degree : t -> node_id -> int
val links : t -> link list

val iter_links : t -> (link -> unit) -> unit
(** Every attached link, newest (highest id) first. *)

val iter_nodes : t -> (node_id -> unit) -> unit

val version : t -> int
(** Monotone topology version: bumped by every {!connect}, {!disconnect}
    and effective {!reconnect}. Route caches key their entries on it to
    detect (in O(1)) that memoized paths may have been computed over a
    different link set. *)

(** {1 Paths}

    A route is the list of [(node, out_port)] pairs a packet follows,
    starting at the source node; the destination is the peer of the last
    hop. This is exactly the information a Sirpent source route needs. *)

type hop = { at : node_id; out : port }

val route_nodes : t -> src:node_id -> hop list -> node_id list
(** Expand a route to the node sequence [src; ...; dst] it visits.
    Raises [Failure] if a hop's port is not connected. *)

val shortest_path :
  t -> metric:(link -> float) -> src:node_id -> dst:node_id -> hop list option
(** Dijkstra. [None] if unreachable; [[]] if [src = dst]. The metric must
    be positive. A node's neighbours are relaxed in the iteration order
    of a hash table of its links filled in port order, not in port order
    itself: equal-cost ties — and so the simulated results that depend
    on them — follow that order.

    Every search in this module is one kernel, run to [dst] or to
    exhaustion. It reads link weights from a {e weight table}, a float
    array indexed by [link_id]: a [~metric] call fills one (calling
    [metric] on every attached link) for all its searches to share. The
    kernel settles a one-port node (a host, or a router at the end of a
    chain) as soon as it is relaxed, without the heap: only its one
    neighbour can reach it, so its route is final then, and leaving it
    out of the heap changes no other entry's order. A search therefore
    costs O(routers' links · log routers + nodes) rather than
    O(links · log nodes), with the same result, ties included; it
    allocates only the path it returns. *)

val shortest_path_excluding :
  t -> metric:(link -> float) -> src:node_id -> dst:node_id ->
  banned_links:int list -> banned_nodes:node_id list -> hop list option
(** {!shortest_path} restricted to paths using none of [banned_links] and
    visiting none of [banned_nodes] — the spur-path primitive behind
    {!k_shortest_paths}, exposed for constrained route compilation
    (avoid-node/avoid-region policies, branch routes around a protected
    link). Same heap keys and relaxation order as {!shortest_path}, so an
    empty ban list is bit-identical to it. *)

val k_shortest_paths :
  t -> metric:(link -> float) -> src:node_id -> dst:node_id -> k:int ->
  hop list list
(** Yen's algorithm: up to [k] loop-free paths in nondecreasing metric
    order. *)

val k_shortest_paths_weighted :
  t -> weights:float array -> src:node_id -> dst:node_id -> k:int -> hop list list

val path_cost : t -> metric:(link -> float) -> hop list -> float

val bandwidth_metric : link -> float
(** [1 + 1e8 / bandwidth_bps]: the IP and circuit baselines' metric. *)

(** {1 Shortest-path trees}

    One Dijkstra run from a source answers every destination: the
    directory memoizes one tree per (source, selector), rebuilt in place
    at each new epoch, instead of re-running Dijkstra per query. The
    tree is built by the {e same} kernel as {!shortest_path}, merely not
    stopped early, so {!spt_path} is bit-identical to a fresh
    per-destination [shortest_path] on the same graph by construction. *)

type spt
(** Two node-indexed arrays: each node's distance, and the hop that
    reaches it packed into one int. *)

val shortest_path_tree : t -> metric:(link -> float) -> src:node_id -> spt
(** Single-source Dijkstra over the whole reachable component. The metric
    must be positive. O(routers' links · log routers + nodes), and two
    words per node besides what [metric] allocates. *)

val spt_create : unit -> spt

val spt_rebuild : t -> weights:float array -> spt -> src:node_id -> unit
(** Rebuild the tree from [src] in its own arrays, allocating nothing
    unless the graph has outgrown them. *)

val spt_src : spt -> node_id

val spt_path : spt -> dst:node_id -> hop list option
(** [None] if unreachable (or the node postdates the tree); [[]] if [dst]
    is the tree's source. Equals [shortest_path ~src ~dst] on the graph
    state the tree was built from. *)

val spt_dist : spt -> dst:node_id -> float
(** Total metric to [dst]; [infinity] if unreachable. *)

(** {1 Builders} *)

val line : ?props:link_props -> int -> t * node_id array
(** [line n] is [n] routers in a chain. *)

val star : ?props:link_props -> int -> t * node_id * node_id array
(** [star n] is a hub router and [n] leaf hosts; returns
    [(g, hub, leaves)]. *)

val dumbbell :
  ?access:link_props -> ?trunk:link_props -> int -> t * node_id array * node_id array
(** [dumbbell n] is [n] hosts on each side of a two-router bottleneck
    trunk; returns [(g, left_hosts, right_hosts)]. *)

val default_props : link_props
(** 10 Mb/s, 5 us propagation, 1500 B MTU — classic Ethernet-era values. *)

val hierarchical_switch :
  ?props:link_props -> t -> leaves:int -> node_id * node_id array
(** §5 of the paper: "We require that larger fan-out switches be
    structured hierarchically as a series of switches, each with a fan-out
    of at most 255." Builds a tree of routers inside [t] whose root
    presents the given number of [leaves] attachment routers (each with
    ports free for hosts/links), splitting any stage whose fan-out would
    exceed the 255-port VIPER limit. Returns [(root, leaf_routers)].
    "The hierarchically structuring ... imposes no significant additional
    delay given the use of cut-through routing at each stage." *)

val hierarchical_internet :
  rng:Sim.Rng.t -> ?branching:int -> ?depth:int -> hosts:int -> unit ->
  t * node_id array * node_id array
(** A deep region hierarchy for directory-scale workloads: a root router,
    [depth] levels of [branching]-ary region routers below it
    ([branching]^[depth] leaf regions), and [hosts] hosts dealt round-robin
    across the leaf regions. Node names spell the region path
    (["top.r3.r1.h42"]), so a host's directory name mirrors the topology.
    Trunks get faster toward the root; [rng] perturbs propagation delays so
    metrics are not degenerate. Raises [Invalid_argument] if any router
    would exceed VIPER's 255-port fan-out. Returns
    [(g, leaf_routers, hosts)]. *)

val campus_internet :
  rng:Sim.Rng.t -> campuses:int -> hosts_per_campus:int -> t * node_id array * node_id array
(** A hierarchical internetwork: a wide-area transit ring of one router per
    campus (45 Mb/s trunks), each campus router serving a local star of
    hosts (10 Mb/s). Returns [(g, campus_routers, hosts)]. Host [i] is on
    campus [i mod campuses]. The [rng] perturbs trunk propagation delays so
    route costs are not degenerate. *)
