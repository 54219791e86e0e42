(** The internetwork routing directory (§3).

    The global name directory extended to return {e routes} — with their
    attributes and the authorizing port tokens — for a character-string
    name. "A client can request and receive multiple routes to a service.
    It can also request a route with particular properties, such as low
    delay, high bandwidth, low cost and security." Merging routing into the
    directory removes IP-style addresses and per-router route computation
    entirely.

    Query latency is modelled from the region hierarchy: resolving a name
    walks up/down region servers, one configurable round trip per level,
    unless the client cache answers. Routers and monitors feed back load
    and failures; clients refresh by re-querying (route advisories).

    {b Scale.} The directory is the only route-computation point in the
    internetwork, so its hot path is engineered for millions of names:
    names are interned into a component trie ({!Name_store}) and all cache
    keys are ints; one shortest-path tree per (client, selector) is
    memoized across an {e epoch} (bumped by load/cost/security reports and
    by topology changes via {!Topo.Graph.version}), so N single-route
    queries from one busy client cost one Dijkstra; and the last answer per
    (client, target, selector, k) is memoized, so repeated (zipf-popular)
    queries cost a hash probe. Both memos sit behind bounded LRUs —
    resident state is O(configured), never O(queries). All of it is
    answer-preserving: a memo hit returns exactly what a cold computation
    at the same epoch would (tokens excepted — they keep their original
    nonces instead of re-minting). *)

type selector =
  | Lowest_delay
  | Highest_bandwidth
  | Lowest_cost
  | Secure  (** only links marked secure; lowest delay among them *)

type attributes = {
  mtu : int;  (** min over the route's links *)
  bandwidth_bps : int;  (** bottleneck *)
  propagation : Sim.Time.t;  (** one-way, sum *)
  hop_count : int;  (** routers traversed *)
  rtt_estimate : Sim.Time.t;
      (** "a client can determine (up to variations in queuing delay) the
          roundtrip time ... rather than discovering these parameters over
          time" — two-way propagation plus per-hop decision times plus the
          transmission of a full-size packet each way *)
  cost : float;
}

type route_info = {
  hops : Topo.Graph.hop list;
  route : Sirpent.Route.t;  (** segments with tokens attached *)
  attrs : attributes;
}

type t

val create :
  ?telemetry:Telemetry.Registry.t -> ?answer_cache:int -> ?spt_cache:int ->
  Topo.Graph.t -> t
(** Minted tokens never expire. [telemetry] registers the [dirsvc_*]
    metrics on an existing registry (e.g. {!Netsim.World.metrics}) so one
    export covers the whole simulation; by default they live on a private
    registry (note [dirsvc_query_us] records {e host} wall time — keep
    the default private registry where snapshots must be
    bit-deterministic).
    [answer_cache] (default 4096) and [spt_cache] (default 64) bound the
    two memo LRUs; 0 disables one (a disabled SPT cache also reverts
    [k = 1] queries to the per-query early-exit Dijkstra — the "cold"
    reference path benchmarks compare against). *)

val register : t -> name:Name.t -> node:Topo.Graph.node_id -> unit
val lookup_name : t -> Name.t -> Topo.Graph.node_id option

val intern_name : t -> Name.t -> int
(** The name's stable interned id (assigned on first sight, registered or
    not) — what clients key their own caches on instead of strings. *)

val registered_names : t -> int
(** Interned-name count (the id space). *)

val enumerate_region : t -> Name.t -> (Name.t * Topo.Graph.node_id) list
(** Every bound name at or below the given region prefix, sorted by name —
    a trie subtree walk, not a scan of all registered names. *)

val set_link_secure : t -> link_id:int -> bool -> unit
(** Links default to insecure; [Secure] queries use only secure links. *)

val set_link_cost : t -> link_id:int -> float -> unit
(** Administrative cost for [Lowest_cost] (default 1.0 per link). *)

val report_load : t -> link_id:int -> utilization:float -> unit
(** Monitors/routers report link load; loaded links are penalized in
    delay-based route selection. A {e changed} report advances the route
    epoch (invalidating memoized SPTs and answers); re-reporting an
    unchanged value keeps caches warm. *)

val epoch : t -> int
(** The current route epoch (monotone; load/cost/security dirt plus the
    graph's topology version). *)

val graph : t -> Topo.Graph.t
(** The topology the directory answers against — shared with the
    simulation world, exposed so the policy compiler can run constrained
    path computations under the same graph (and the same
    {!Topo.Graph.version} the epoch guards). *)

val route_metric : t -> selector -> Topo.Graph.link -> float
(** The link metric a given selector optimizes — exactly the function the
    directory's own SPTs are built with, so external path computations
    (e.g. the policy compiler's avoid/waypoint legs) rank paths
    identically to {!query}. *)

val query :
  t -> client:Topo.Graph.node_id -> target:Name.t -> ?selector:selector ->
  ?k:int -> ?priority:Token.Priority.t -> unit -> route_info list
(** Up to [k] (default 2) loop-free routes, best first, with tokens minted
    for every router hop. Empty if the name is unknown or unreachable.
    Served from the answer memo when the epoch still matches; [k = 1]
    misses are answered from the memoized shortest-path tree; deeper [k]
    fall back to Yen's k-shortest machinery. *)

val answer_key : client:Topo.Graph.node_id -> target:int -> selector:selector -> k:int -> int
(** The answer memo's key: [client], the target's interned id, the
    selector and [k] packed into one distinct int. Raises
    [Invalid_argument] (and so does {!query}) unless [client] and
    [target] lie in [0, 2{^26}) and [k] in [0, 255]. *)

val query_latency : t -> client:Topo.Graph.node_id -> target:Name.t -> Sim.Time.t
(** The simulated resolution delay a non-cached query pays: 2 ms for
    each hierarchy level the resolution walks (clients add this before
    using the result; {!Client} automates it). *)

val queries_served : t -> int

(** {1 Cache observability}

    Counter accessors mirror the [dirsvc_*] metrics registered on the
    telemetry registry. *)

val cache_hits : t -> int
(** Queries answered from the answer memo at a matching epoch. *)

val cache_misses : t -> int
(** Queries that ran route computation. *)

val cache_evictions : t -> int
(** LRU capacity evictions, answers and SPTs combined. *)

val spt_builds : t -> int
(** Full single-source Dijkstra runs. *)

val dropped_candidates : t -> int
(** Candidate paths dropped because a link vanished mid-query (instead of
    raising into the client callback). *)

val cache_entries : t -> int
(** Resident cached entries (answers + SPTs); also exported as the
    [dirsvc_cache_entries] gauge. *)

val query_percentile_us : t -> float -> int
(** Host wall-time percentile (p in [0,1]) of {!query} calls, in
    microseconds — the [dirsvc_query_us] histogram. Bucketed upper bound;
    0 when no query has run. *)

(** {1 Staleness injection (fault model)}

    A frozen directory stops recomputing routes: queries are answered from
    the memo of the last answer for the same (client, target, selector, k)
    — even if the links those routes cross have since died. This models a
    directory partitioned from topology updates, so clients must discover
    route death on use (timeouts → failover), not at query time. Queries
    with no memoized answer (never asked, or since evicted) still compute
    fresh. *)

val set_frozen : t -> bool -> unit

val stale_served : t -> int
(** Queries answered from the memo while frozen. *)
