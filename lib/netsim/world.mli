(** The simulated internetwork: a topology whose nodes exchange frames over
    links with real serialization, propagation and queueing.

    Transmission model: a frame of [b] bits sent on a link of rate [R]
    occupies the output port for [b/R]; its head reaches the peer after the
    propagation delay and its tail [b/R] later. The receiving handler gets
    both times, so a store-and-forward node acts at [tail] while a
    cut-through node acts once the header has arrived after [head] — the
    distinction at the core of §6.1.

    Output ports serve a priority queue (VIPER rank order, FIFO within a
    rank). A port is busy until its transmission's completion, which
    takes the engine key [(finish, seq)] reserved when the transmission
    began: the port is free to exactly the events whose keys sort after
    that one ({!Sim.Engine.passed}). The completion event itself is
    scheduled only when a frame waits behind the port; with nothing
    queued there is nothing for it to do. A preemptive-priority frame (§5: priorities 6-7) aborts a lower
    priority, non-preemptive transmission in progress; the aborted frame is
    lost in flight (fate [Preempted] unless its head already reached the
    receiver). Frames flagged drop-if-blocked are discarded rather
    than queued. *)

type t

type send_result =
  | Started  (** port was free; transmission began *)
  | Started_preempting of Frame.t  (** began by aborting the given frame *)
  | Queued
  | Dropped_blocked  (** drop-if-blocked frame found the port busy *)
  | Dropped_overflow  (** output buffer full *)
  | Dropped_no_link  (** port not connected (link down) *)

type handler =
  t -> in_port:Topo.Graph.port -> frame:Frame.t -> head:Sim.Time.t ->
  tail:Sim.Time.t -> unit

val create : Sim.Engine.t -> Topo.Graph.t -> t
(** Each output queue holds 256 KiB until {!set_buffer_bytes} says
    otherwise. Every link delivery is one engine event at the frame's
    head arrival, and every node-side delay (a router's act step, a
    host's reception) is posted by its owner directly on {!engine}. The
    world registers two event kinds on the engine, so neither a delivery
    nor a completion builds a closure. *)

val delivery_kind : t -> Sim.Engine.kind
(** The kind of this world's link deliveries: one event per frame put on
    a wire, at its head's arrival. *)

val completion_kind : t -> Sim.Engine.kind
(** The kind of this world's transmission completions, which run only
    when a frame waits behind a port. *)

val engine : t -> Sim.Engine.t
val graph : t -> Topo.Graph.t
val now : t -> Sim.Time.t

val set_handler : t -> Topo.Graph.node_id -> handler -> unit
(** Frames delivered to a node without a handler are counted and dropped
    (a data frame's fate is [No_handler]). *)

val fresh_frame :
  t -> ?priority:Token.Priority.t -> ?drop_if_blocked:bool ->
  ?meta:Frame.meta -> ?flight:Telemetry.Flight.ctx -> bytes -> Frame.t
(** A frame whose window is the whole of the given bytes. [flight]
    attaches a flight-recorder trace context to the frame; forwarders
    that re-frame a payload pass the incoming frame's context along so
    spans accumulate across the whole route. *)

val send : t -> node:Topo.Graph.node_id -> port:Topo.Graph.port -> Frame.t -> send_result
(** Hand a frame to the node's output port for transmission now. A
    refusal records no fate: the caller decides (a delay line retries). *)

(** {1 A packet's life}

    Every packet the world originates (or imports from another region)
    ends exactly once: delivered ({!complete}), handed off to another
    world ({!hand_off}) or lost with a fate ({!lose}, also for what a
    crashed router's limiter held). Each call counts the packet and ends
    its flight, so counts and spans agree. A purged or preempted
    transmission whose delivery already ran is the receiver's to account
    for. A control frame ([meta <> None]) is not a packet: losing one
    records nothing. *)

val originate : t -> Telemetry.Flight.ctx option
(** Count a packet entering here; its flight, if the recorder is on (no
    allocation otherwise). *)

val originate_copies : t -> int -> unit
(** [n] more packets copied from one in hand; they share its flight. *)

val complete : t -> Frame.t -> unit

val hand_off : t -> Frame.t -> Telemetry.Flight.carried option
(** A tunnel encapsulation or a region export; the flight goes along. *)

val lose :
  t -> node:Topo.Graph.node_id -> in_port:Topo.Graph.port -> Frame.t ->
  Telemetry.Flight.fate -> unit

val fate_count : t -> Telemetry.Flight.fate -> int

val conservation : t -> int
(** Originated − delivered − handed off − Σ fates: packets still queued,
    in flight or held; 0 once the engine has run dry. *)

(** {1 Region sharding hooks}

    Used by {!Shard} to stitch per-region worlds into one internetwork:
    an egress proxy's departure tap feeds the shard's time promise, and
    frames crossing a gateway re-enter the peer region through
    {!import_frame} + {!deliver_direct}. *)

val set_departure_tap : t -> node:Topo.Graph.node_id -> (head:Sim.Time.t -> unit) -> unit
(** Call [f ~head] whenever a transmission whose delivery will arrive at
    [node] is scheduled. The delivery may still be cancelled by
    preemption or a crash; consumers treat un-fired heads at or below
    the clock as dead (see {!Sim.Shard_engine.outbound_sent}). *)

val import_frame :
  t -> ?priority:Token.Priority.t -> ?drop_if_blocked:bool ->
  ?carried:Telemetry.Flight.carried -> aborted:bool -> len:int -> bytes -> Frame.t
(** A packet re-entering this world from another region's shard, its
    window the first [len] bytes of a buffer copied for this world (the
    rest is the packet's remaining tailroom). It is originated here, with
    its [carried] flight. [meta] does not cross gateways (it may hold
    world-local state); the shard layer counts such drops. *)

val deliver_direct :
  t -> node:Topo.Graph.node_id -> in_port:Topo.Graph.port -> frame:Frame.t ->
  head:Sim.Time.t -> tail:Sim.Time.t -> unit
(** Invoke [node]'s handler as if [frame] arrived on [in_port] — the
    ingress half of a gateway crossing. Handler exceptions are caught
    and counted exactly as for a link delivery. *)

val set_buffer_bytes : t -> node:Topo.Graph.node_id -> port:Topo.Graph.port -> int -> unit

val set_store_and_forward : t -> link_id:int -> unit
(** Operate the link store-and-forward: the head of a frame leaves only
    after the whole frame is serialized, so head and tail arrive
    together at [finish + propagation] (§6.1's store-and-forward
    forwarding, applied to the wire). On such a link no event at time
    [s] can cause an arrival before [s + min transmission time +
    propagation], which is what lets a shard promise
    [propagation + tx(min frame)] as a per-edge lookahead over a
    region-to-region trunk. Cut-through (the default) is unchanged. *)

val store_and_forward : t -> link_id:int -> bool

val set_bit_error_rate : t -> link_id:int -> float -> unit
(** Independent per-bit corruption probability; a corrupted delivery has a
    random payload byte flipped (the header-corruption scenario of §4.1). *)

val set_corruptor : t -> (link:Topo.Graph.link -> bytes -> bytes option) -> unit
(** Install an external damage model (the fault injector): called for every
    frame entering a link with the outgoing payload; returning [Some b]
    delivers [b] instead (counted in [corrupted]). Takes precedence over
    the flat {!set_bit_error_rate} table. *)

val fail_link : t -> Topo.Graph.link -> unit
(** Take a link down: removes it from the topology; frames already in
    flight still arrive; subsequent sends get [Dropped_no_link]. *)

val restore_link : t -> Topo.Graph.link -> unit
(** Bring a failed link back on its original ports. *)

val purge_node : t -> node:Topo.Graph.node_id -> int
(** Crash support: abort the in-flight transmission and drop all queued
    frames on every outport of [node]; returns the number of frames lost
    (counted in [purged]). A transmission whose completion key has
    passed is no longer in the port and is left alone. *)

(** {1 Introspection for congestion control and experiments} *)

val queue_length : t -> node:Topo.Graph.node_id -> port:Topo.Graph.port -> int
val queued_bytes : t -> node:Topo.Graph.node_id -> port:Topo.Graph.port -> int
val port_busy : t -> node:Topo.Graph.node_id -> port:Topo.Graph.port -> bool
(** Whether the port's transmission has yet to reach its completion key. *)

type port_stats = {
  sent_frames : int;
  sent_bytes : int;
  dropped_blocked : int;
  dropped_overflow : int;
  dropped_no_link : int;
  preempted : int;  (** transmissions aborted by a preemptive frame *)
  corrupted : int;
  purged : int;  (** frames lost to a node crash *)
  busy_time : Sim.Time.t;  (** total time the port was transmitting *)
  mean_queue : float;  (** time-averaged queue length (excluding in service) *)
  max_queue : float;
}

val port_stats : t -> node:Topo.Graph.node_id -> port:Topo.Graph.port -> port_stats

val utilization : t -> node:Topo.Graph.node_id -> port:Topo.Graph.port -> float
(** busy_time / elapsed time. *)

val undelivered : t -> int
(** Frames that arrived at nodes with no handler. *)

val handler_errors : t -> node:Topo.Graph.node_id -> int
(** Exceptions raised out of this node's handler. A raising handler must
    not corrupt the event loop: the exception is caught, counted here, and
    the simulation keeps running. *)

val total_handler_errors : t -> int

(** {1 Telemetry}

    Every world owns a metrics registry, a typed event log and a flight
    recorder; protocol layers built on the world register their metrics
    here so a single {!Telemetry.Export.json} call snapshots the whole
    simulation. World-wide [netsim_*] counters (sent frames/bytes, each
    drop cause, corruption, purges, handler errors) are kept on the
    registry; {!port_stats} remains the per-port view. *)

val metrics : t -> Telemetry.Registry.t
val events : t -> Telemetry.Events.t
val flight : t -> Telemetry.Flight.t
