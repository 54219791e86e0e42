(** A region-sharded simulation cluster.

    One {!Sim.Engine} + {!World} per region of a {!Partition.t}, joined
    only at the gateway links: each direction of each gateway is an
    unbounded SPSC channel carrying timestamped frame crossings plus the
    packet's flight-recorder context, and the shards advance under
    conservative (Chandy–Misra–Bryant) null-message synchronization
    ({!run}).

    Lookahead is per directed gateway edge: each egress channel promises
    with its own gateway's propagation delay — plus, when the trunk is
    declared store-and-forward in its {!profile}, the serialization time
    of the smallest frame the workload sends over it — so a consumer's
    safe time is bounded by exactly the edges that feed it rather than
    one region-wide pessimistic scalar.

    Determinism: cross-shard frames enter the peer engine with a seq key
    [foreign_seq_base + m_seq * (2*gateways) + dir] derived from the
    producing shard's deterministic message counter, so the (time, seq)
    execution order — and therefore every counter, histogram, event ring
    and flight — is bit-identical for every [shards] value, including
    the never-spawning [shards = 1] serial reference. Re-balancing
    ({!run}'s [epoch]) only moves shard ownership between worker
    domains at quiescent points and never touches the simulation, so
    the guarantee survives it untouched. *)

module G = Topo.Graph

type t

type profile = {
  store_and_forward : bool;
      (** operate the gateway link store-and-forward in both region
          worlds ({!World.set_store_and_forward}): frame heads leave
          only fully serialized — the property that makes the
          [min_frame_bytes] lookahead term sound *)
  min_frame_bytes : int;
      (** smallest frame the workload sends over this trunk; its
          transmission time joins both dirs' lookaheads when
          [store_and_forward] is set, and is ignored otherwise (under
          cut-through a head outruns serialization) *)
}

val default_profile : profile
(** Plain cut-through. *)

val create : ?profiles:profile array -> Partition.t -> t
(** Builds the per-region engines/worlds and wires the gateway proxies.
    Protocol stacks are installed afterwards by the caller, on each
    region's {!world}, for the nodes that region owns. Each gateway
    crossing is one push onto that direction's unbounded channel, made
    as the egress proxy takes delivery; a push never waits, and a
    channel never holds more than about one lookahead window of
    frames. [profiles] (one per gateway, in partition gateway order)
    sharpens that gateway's two edges; default {!default_profile}
    everywhere. *)

val regions : t -> int
val world : t -> int -> World.t
val engine : t -> int -> Sim.Engine.t
val graph : t -> int -> G.t
val region_of : t -> G.node_id -> int

type region_load = {
  rounds : int;  (** sync rounds this region's shard was serviced *)
  advances : int;  (** busy rounds: its engine clock moved *)
  null_messages : int;  (** per-edge promise publications that moved *)
  events : int;  (** events its engine executed — the balancer signal *)
}

type stats = {
  shards : int;  (** worker domains actually used *)
  regions : int;
  rounds : int;  (** max conservative sync rounds over workers *)
  null_messages : int;  (** promise publications that moved a bound *)
  cross_frames : int;  (** frames that crossed a gateway channel *)
  epochs : int;  (** re-balancing quiescent points crossed *)
  migrations : int;  (** shard->worker ownership moves at those points *)
  wall_clock_s : float;
  cpu_time_s : float;
  per_region : region_load array;
      (** indexed by region. Only [events] is schedule-independent
          (it is a pure function of the simulation at the end); the
          service counters depend on worker interleaving except at
          [shards = 1], where the whole loop is deterministic. *)
}

val run : ?shards:int -> ?epoch:Sim.Time.t -> until:Sim.Time.t -> t -> stats
(** Advance every region through [until]. [shards = 1] (the default)
    drives all regions from the calling domain and never spawns; larger
    values fan regions out over [min shards regions] domains via
    {!Parallel.Pool}. Each sync round services a region in a fixed
    order: read its safe time (the min over the promises of the channels
    feeding it), drain its inboxes, advance its engine strictly below
    that time, publish one promise per egress channel, and retire it
    once it ran through [until] with nothing left to receive. A worker
    whose round moved nothing waits for another worker's progress
    instead of running idle rounds.

    [epoch] (simulated time) enables load-adaptive re-balancing: every
    region parks at each boundary [k * epoch], a quiescent point where
    its executed-event count is a pure function of the simulation, and
    region->worker ownership is re-packed there by a deterministic LPT
    bin-packing over the per-epoch deltas. Only the servicing domain
    moves, so simulation output is bit-identical with or without it.
    Raises [Invalid_argument] on [shards < 1] or a non-positive
    [epoch]. *)

(** {1 Merged telemetry}

    Folded with {!Telemetry.Merge} in fixed region order — identical
    output for every shard count. *)

val merged_rows : t -> Telemetry.Registry.row list
val merged_events : t -> (Sim.Time.t * Telemetry.Events.event) list
val merged_flights : t -> Telemetry.Flight.flight list
