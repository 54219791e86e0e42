(** Rate-based congestion control (§2.2).

    Each router monitors its output queues. When a queue builds beyond a
    threshold, the router signals the "upstream" routers feeding that queue
    to reduce their rate toward it. Feeders recognize the affected packets
    from the source route they carry — a packet leaving the feeder on port
    [p] whose following header segment names port [x] is bound for the
    congested queue [(p, x)] — so per-flow soft state arises dynamically
    "from the point of congestion back to the sources" with no circuit
    setup.

    A feeder's limiter is a token bucket. With no refreshed signal it ramps
    its rate multiplicatively (the paper: feeders "must progressively push
    the authorized rate up, similar to Jacobson's slow start") and expires
    as soft state. Held packets queue in the limiter; when that backlog
    itself exceeds the threshold the feeder's own monitor propagates the
    signal further upstream. A limiter holds the packets themselves, so a
    crash that wipes it hands them back to be ended as lost.

    The paper leaves the constants open ("part of on-going research");
    {!default_config} records this repo's choices, tuned by the E22
    closed-loop sweep against steady overload, adversarial (w,ρ)
    injection, flash-crowd and incast workloads. {!untuned_config}
    preserves the pre-tuning seed constants as the E22 comparison
    baseline. *)

type config = {
  queue_threshold : int;  (** queued packets that declare congestion *)
  release_threshold : int;
      (** hysteresis low-water mark: once a port is congested, its feeders
          keep being refreshed until the queue drains to at most this
          depth. Equal to [queue_threshold] the controller has no
          hysteresis and may oscillate limiter on/off each window. *)
  feeder_share : float;  (** fraction of capacity divided among feeders *)
  limiter_expiry : Sim.Time.t;  (** soft-state lifetime without refresh *)
  ramp_factor : float;  (** rate multiplier per quiet interval *)
  ramp_after : Sim.Time.t;
      (** quiet time (since the last refresh) before ramp-up begins. At
          {!check_interval} (the seed behaviour) a limiter starts ramping
          between the very signals that refresh it, so idle gaps in a
          bursty workload wind it back to line rate and the next burst
          lands unthrottled; a few intervals of patience keeps the
          throttle honest while the congested queue is still draining. *)
  max_rate_factor : float;
      (** ramp clamp: a limiter's rate never exceeds this multiple of its
          local out-link capacity, so a long-unrefreshed limiter cannot
          blast arbitrarily past line rate when it finally expires.
          [infinity] disables the clamp (the untuned seed behaviour). *)
}
(** The seven knobs E22's tuner searches. *)

val check_interval : Sim.Time.t
(** Monitor / ramp period: 5 ms. *)

val min_rate_bps : float
(** Floor for advertised rates: 64 kb/s. *)

val burst_window_s : float
(** Token-bucket depth, as seconds of the current rate: 5 ms. *)

val default_config : config
(** The E22-tuned constants: hysteresis on ([release_threshold] below
    [queue_threshold]), feeder share high enough to hold utilization at
    steady overload, limiter expiry long enough to outlive the drain from
    threshold to release, and the ramp clamped at line rate. *)

val untuned_config : config
(** The pre-E22 seed constants (documented-but-untuned defaults): no
    hysteresis, 90% feeder share, 100 ms expiry, unclamped ramp. Kept as
    the adversarial-bench comparison point. *)

type Netsim.Frame.meta +=
  | Rate_ctl of { congested_port : int; rate_bps : float }
        (** "Reduce your rate of packets bound for my port
            [congested_port] to [rate_bps]." Carried at priority 7. *)

type t

val create : Netsim.World.t -> node:Topo.Graph.node_id -> config -> t

val note_arrival : t -> in_port:Topo.Graph.port -> out_port:Topo.Graph.port -> unit
(** Record that a packet arriving on [in_port] was routed to [out_port]
    (feeder bookkeeping for the monitor). *)

val admit : t -> out_port:Topo.Graph.port -> Netsim.Frame.t -> bool
(** Whether [frame] may leave on [out_port] now: no limiter for its
    queue, or one holding nothing with enough tokens for
    {!Netsim.Frame.bits}, which are then spent. The queue is
    [(out_port, next_port)], where [next_port] is
    {!Viper.Packet.next_port} of the frame's window — the port the next
    router forwards it on, read from either codec's header; a frame
    with none ([-1]) is never limited. The key is read only when some
    limiter is installed, and nothing is allocated when none is. *)

val hold :
  t -> out_port:Topo.Graph.port -> Netsim.Frame.t -> send:(unit -> unit) -> unit
(** Only after {!admit} said [false] at the same instant: queue the
    frame, with the [send] that transmits it, behind its limiter and
    release what the bucket permits — possibly this frame, at once. *)

val handle_ctl :
  t -> arrival_port:Topo.Graph.port -> congested_port:int -> rate_bps:float -> unit
(** Install/refresh the limiter keyed [(arrival_port, congested_port)].
    A refresh that raises the rate re-evaluates any waiting drain, so a
    held packet never over-waits on a schedule computed from the stale
    lower rate. *)

val start : t -> unit
(** Begin the periodic monitor (idempotent). *)

val reset : t -> Netsim.Frame.t list
(** Crash support: wipe all soft state (limiters, feeder windows,
    monitored and congested ports, flap history). Returns the frames
    limiters held, unsent, for the caller to end as lost (also counted
    in [congestion_crash_drops]). The state rebuilds from subsequent
    traffic, as soft state must. *)

val backlog : t -> int
(** Packets currently held across all limiters. *)

val limiters : t -> int
val bucket_level : t -> out_port:int -> next_port:int -> (float * float) option
(** [(bucket_bits, burst_cap_bits)] of the limiter for
    [(out_port, next_port)] after refilling it to now; [None] when
    unthrottled. The first component never exceeds the second. *)

val ctl_sent : t -> int

val oscillations : t -> int
(** Backpressure oscillations: limiters re-installed within 200 ms of
    their own expiry ([congestion_oscillations] on the
    world registry; each also emits {!Telemetry.Events.Backpressure_flap}). *)
