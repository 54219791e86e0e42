(** Conservative (Chandy–Misra–Bryant) synchronization across shards of
    one simulation, with optional load-adaptive ownership re-packing at
    deterministic quiescent points.

    Each endpoint wraps one shard (in practice a {!Sim.Shard_engine} +
    its world and channels) behind closures; the driver owns the worker
    loop, the epoch barriers, the null-message accounting and the
    domain fan-out. Promise storage lives behind the endpoints (the
    shard layer publishes per-egress-edge promises and computes
    [safe_in] from its in-neighbors' edges), so the driver is agnostic
    to the promise topology.

    The driver guarantees each endpoint's closures are only ever called
    from one domain at a time, in a fixed order per round:
    [safe_in; drain; advance; publish; at_end] — and that [drain]
    happens after the promises governing the round were read, which
    (producers push before publishing) closes the push/promise race.

    With [epoch] set, [advance] is capped at sim-time boundaries
    [T_k = k * epoch]; every shard parks at exactly [T_k], a quiescent
    point where each engine's [work] counter is a pure function of the
    simulation. There, a barrier re-packs shard->worker ownership by a
    deterministic LPT bin-packing over per-epoch [work] deltas — so
    every re-run at the same width replays the same migration sequence,
    and simulation results are untouched by construction (only the
    servicing domain changes; engines, worlds and channels stay put).

    A worker whose round made no progress waits on a generation
    counter that every promise move, retirement, boundary park and
    barrier release bumps, instead of running idle rounds. When the
    workers (counting the calling domain) fit in
    [Domain.recommended_domain_count ()] the wait spins and allocates
    nothing; when they do not, it spins briefly and then parks on a
    mutex/condition pair until the next bump.

    [shards = 1] never spawns: every endpoint is driven by the calling
    domain, which is the serial reference any other width must
    reproduce bit-for-bit. *)

type endpoint = {
  drain : unit -> unit;  (** pop every inbox message into the engine *)
  inbox_empty : unit -> bool;
  safe_in : unit -> Sim.Time.t;
      (** min over in-neighbor promises toward this shard *)
  advance : safe_in:Sim.Time.t -> cap:Sim.Time.t -> bool;
      (** run strictly below [safe_in], inclusive-capped at [cap];
          returns whether the clock moved *)
  publish : safe_in:Sim.Time.t -> int;
      (** recompute and publish this shard's egress promises; returns
          how many moved (each counts as a null message) *)
  reached : cap:Sim.Time.t -> bool;  (** parked at the epoch boundary *)
  at_end : safe_in:Sim.Time.t -> bool;  (** ran through the horizon *)
  on_retire : unit -> unit;
      (** lift every egress promise to infinity — called once, after
          which no closure of this endpoint is called again *)
  work : unit -> int;
      (** cumulative events executed — the balancer's load signal; at a
          parked boundary this is schedule-independent *)
}

type shard_load = {
  rounds : int;  (** service rounds this shard received *)
  advances : int;  (** rounds in which its clock moved (busy rounds) *)
  null_moves : int;  (** promise publications that moved a bound *)
  events : int;  (** cumulative events executed by its engine *)
}

type stats = {
  shards : int;  (** worker groups actually used *)
  rounds : int;  (** max sync rounds over the worker groups *)
  null_messages : int;  (** promise publications that moved the bound *)
  epochs : int;  (** quiescent-point barriers crossed *)
  migrations : int;  (** shard->worker ownership moves across barriers *)
  per_shard : shard_load array;  (** indexed like the endpoint array *)
}

val run :
  ?shards:int -> ?epoch:Sim.Time.t -> until:Sim.Time.t -> endpoint array -> stats
(** Drive every endpoint until all retire. [epoch] (simulated time,
    positive) enables re-balancing at boundaries [k * epoch]; omitted,
    ownership is the static round-robin assignment and no barriers run.
    Raises [Invalid_argument] on [shards < 1] or a non-positive
    [epoch]. *)
