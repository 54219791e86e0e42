(** The per-packet flight recorder.

    A trace context is allocated where a packet enters the internetwork
    (host send, gateway injection) and rides the simulated frame. Each
    router that switches the packet appends one typed hop span — arrival
    time, switching mode, token-cache outcome, departure time — mirroring
    how the VIPER trailer accumulates one reversed segment per hop. The
    context is completed at final delivery, or terminated with a drop span
    carrying the packet's {!fate}, the one the world counted.

    Sampling keeps heavy runs cheap: with [sample_every = n] only every
    n-th packet records spans, but a context is still allocated for the
    rest so a drop anywhere promotes the packet into the recorder
    ([capture_drops]). With [sample_every = 0] the recorder is disabled
    and {!start} returns [None] — the per-packet cost is one branch.
    Metric counters live in {!Registry} and are exact regardless of the
    sampling policy. Completed flights are kept in a bounded ring. *)

type handling = Cut_through | Store_forward | Local_delivery | Injected

type token_check = No_token | Cache_hit | Cache_miss | Denied

(** How a packet that was not delivered ended: the simulator's one loss
    vocabulary, counted by the world and carried by the drop span. *)
type fate =
  | Malformed  (** bytes that fail to parse: damage in flight *)
  | Down  (** arrived at a crashed router *)
  | Parse_error  (** splice depth, unknown port group *)
  | Unauthorized  (** token denied, or required but absent *)
  | Truncated  (** an over-MTU packet that cannot be cut *)
  | Send_drop  (** blocked, overflow, no link, or no port to copy to *)
  | Aborted  (** its transmission was cut short before the receiver acted *)
  | Misdelivered  (** reached a host its route does not end at *)
  | Purged  (** queued, in flight or held by a node that crashed *)
  | Preempted  (** its delivery cancelled by a preemptive frame *)
  | No_handler  (** arrived at a node with no frame handler *)
  | Handler_error  (** the receiving handler raised *)

type span = {
  node : int;
  in_port : int;
  out_port : int;  (** -1 when the packet did not leave (drop, local) *)
  arrival : Sim.Time.t;  (** head arrival at this node *)
  departure : Sim.Time.t;  (** when the forwarding action begins *)
  queue_wait : Sim.Time.t;  (** departure - arrival *)
  handling : handling;
  token : token_check;
  drop : fate option;  (** drop spans only: how the packet ended *)
}

type flight = {
  packet_id : int;
  injected_at : Sim.Time.t;
  completed_at : Sim.Time.t;
  spans : span list;  (** route order *)
  dropped : fate option;  (** [None] = delivered *)
}

type policy = {
  sample_every : int;  (** record spans for 1-in-N packets; 0 disables *)
  capture_drops : bool;  (** dropped packets are recorded even unsampled *)
  capacity : int;  (** completed flights retained (ring) *)
}

type t
type ctx

val create : ?policy:policy -> unit -> t
(** [policy] defaults to [{ sample_every = 0; capture_drops = true;
    capacity = 1024 }]: disabled; enable per experiment with
    {!set_policy}. *)

val set_policy : t -> policy -> unit
(** Replaces the policy and clears all recorded state. *)

val enabled : t -> bool

(** {1 Producing} *)

val start : t -> now:Sim.Time.t -> ctx option
(** Allocate the trace context at injection. [None] when disabled, or
    when this packet is unsampled and drops are not captured. *)

val note_token : ctx -> token_check -> unit
(** Record the token-cache outcome; consumed by the next {!hop}. *)

val hop :
  ctx -> node:int -> in_port:int -> out_port:int -> arrival:Sim.Time.t ->
  departure:Sim.Time.t -> handling:handling -> unit
(** Append this node's hop span (no-op on unsampled contexts). *)

val drop : ctx -> node:int -> in_port:int -> now:Sim.Time.t -> fate -> unit
(** Terminate the flight with a drop span; recorded even when unsampled
    (if [capture_drops]), so drops are never invisible. Idempotent once
    the flight finished. Called by the world's loss call alone. *)

val complete : ctx -> now:Sim.Time.t -> unit
(** Final delivery. Commits the flight to the ring when sampled. *)

(** {1 Cross-shard handoff}

    A region-sharded world serializes a departing packet's context into
    plain data and rebuilds it in the destination region's recorder, so
    spans keep accumulating across the gateway and the flight is
    committed exactly once (by whichever recorder sees the packet
    finish). *)

type carried = {
  carried_injected_at : Sim.Time.t;
  carried_sampled : bool;
  carried_rev_spans : span list;  (** newest first, as accumulated *)
  carried_token : token_check;
}

val export : ctx -> carried
(** Snapshot for the channel. Marks the source context finished without
    counting a completion or a drop — the importing side owns the
    packet's fate from here. *)

val import : t -> carried -> ctx option
(** Rebuild the context in this recorder (fresh local packet id, same
    sampling decision). [None] when this recorder is disabled or would
    not have retained the context — mirroring {!start}. *)

(** {1 Consuming} *)

val flights : t -> flight list
(** Completed flights retained in the ring, oldest first. *)

val started : t -> int
(** Packets that passed {!start} while enabled (sampled or not). *)

val sampled_count : t -> int
val completed : t -> int
val dropped : t -> int
val recorded : t -> int

val handling_name : handling -> string
val token_name : token_check -> string

val fate_name : fate -> string
(** The snake-case name exports and drop tables show: ["send_drop"]. *)
