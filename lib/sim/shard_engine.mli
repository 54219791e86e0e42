(** A conservative (Chandy–Misra–Bryant) shard clock around {!Engine}.

    One shard of a region-partitioned simulation owns one engine and a
    set of directed egress {e edges} (its gateway channels). Each sync
    round the driver reads the minimum time promised by the shard's
    in-neighbors ([safe_in]), calls {!advance} to execute every event
    strictly below it (capped at the driver's epoch boundary), then
    publishes one promise per egress edge — a lower bound on the
    timestamp of any message this shard could still send over it:

    {v promise(e) = min( min pending outbound head toward e,
                         min(next local event, safe_in) + lookahead(e) ) v}

    [lookahead(e)] is per edge: the gateway link's propagation delay,
    plus — when the link is operated store-and-forward — the minimum
    transmission time over the priorities enabled on that link (a frame
    must be fully serialized before its head leaves, so no event at
    time [s] can make anything arrive before [s + tx_min + prop]).
    Transmissions already in flight are promised exactly via the
    per-edge pending-head multiset ({!note_outbound} /
    {!outbound_sent}).

    Promises are monotone non-decreasing and, because every lookahead
    is strictly positive, always strictly above the shard's own clock —
    so the shard holding the globally earliest event is always allowed
    to run it, and the protocol cannot deadlock. *)

type t

val create_edges : lookaheads:Time.t array -> Engine.t -> t
(** One clock with an edge per directed egress channel, each with its
    own lookahead and pending multiset. An empty array is legal (a sink
    region promises nothing). Raises [Invalid_argument] on any
    non-positive lookahead: a zero-latency gateway link gives a zero
    lookahead, under which null messages make no progress — the
    partitioner refuses such topologies instead. *)

val edge_count : t -> int
val edge_lookahead : t -> edge:int -> Time.t

val note_outbound : t -> edge:int -> head:Time.t -> unit
(** A transmission whose delivery arrives at [edge]'s egress proxy at
    [head] was scheduled (wired to the world's departure tap). *)

val outbound_sent : t -> edge:int -> head:Time.t -> unit
(** The delivery at [head] fired and its message was handed to the
    channel. Heads that never fire (transmission aborted by preemption
    or a crash) are discarded lazily once the clock passes them. *)

val promise_edge : t -> edge:int -> safe_in:Time.t -> Time.t
(** Publishable lower bound on this shard's future sends over [edge];
    monotone per edge. *)

val advance : t -> safe_in:Time.t -> cap:Time.t -> bool
(** Run events with time < [safe_in], inclusive-capped at [cap] (the
    driver passes [min(epoch boundary, until)] — with no rebalancing,
    just [until], matching the serial semantics of [Engine.run ~until]).
    Returns whether the horizon moved. *)

val reached : t -> cap:Time.t -> bool
(** The engine has been advanced through [cap] — the shard is parked at
    the current epoch boundary (quiescent-point rendezvous). *)

val finished : t -> safe_in:Time.t -> until:Time.t -> bool
(** The shard ran through [until] and no in-neighbor can send anything
    at or below it. *)
