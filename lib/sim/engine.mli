(** Discrete-event simulation engine.

    A single-threaded event loop over a {!Heap}. Events scheduled at the
    same instant run in the order they were scheduled. An event is data:
    its key [(time, seq)], a {!kind} and an int payload, all unboxed
    ints in the heap, with no per-event record. A component registers one handler
    per kind when it is created ({!register}) and posts events of that
    kind ({!post_at}, {!post_keyed}); the run loop calls
    [handler payload]. What the payload names — a port, a slot in the
    component's own slab ({!Slab}) — is the component's business.
    Closures remain for cold paths: {!schedule} and its variants queue a
    [unit -> unit] as an event of the built-in {!closure_kind}, whose
    payload is the closure's slot in the engine's closure slab.
    Scheduling returns nothing; an event that may need cancelling is
    scheduled at a key its owner reserved with {!alloc_seq} and cancelled
    by that key ({!cancel}). *)

type t

type kind
(** An event kind: a handler registered with {!register}. *)

val create : unit -> t

val register : t -> (int -> unit) -> kind
(** [register t handler] makes a new kind of event whose events run
    [handler payload]. Registering is for set-up: it copies the engine's
    handler table. *)

val closure_kind : kind
(** The kind of every event queued with a closure ({!schedule},
    {!schedule_at}, {!schedule_keyed}, {!schedule_foreign}). *)

val post_at : t -> time:Time.t -> kind:kind -> int -> unit
(** [post_at t ~time ~kind payload] queues an event of [kind] at [time]
    with the next sequence number, exactly where {!schedule_at} would
    have queued a closure. Allocates nothing (unless the heap grows).
    The time must not be in the past; [kind] must be registered on [t]. *)

val post_keyed : t -> time:Time.t -> seq:int -> kind:kind -> int -> unit
(** {!post_at} at a key reserved with {!alloc_seq}, exactly where
    {!schedule_keyed} would have queued a closure. An event of a
    registered kind that is cancelled never reaches its handler: its
    owner releases whatever the payload names when it cancels. *)

val now : t -> Time.t
(** Current simulated time. [Time.zero] before the first event runs. *)

val schedule : t -> delay:Time.t -> (unit -> unit) -> unit
(** [schedule t ~delay f] runs [f] at [now t + delay].
    Raises [Invalid_argument] on a negative delay. *)

val schedule_at : t -> time:Time.t -> (unit -> unit) -> unit
(** Absolute-time variant. The time must not be in the simulated past. *)

val alloc_seq : t -> int
(** Reserve and return the sequence number an event scheduled right now
    would receive, advancing the counter without pushing anything. A
    lazy event (a port's transmission completion) reserves its key this
    way and is scheduled at it later with {!schedule_keyed}, or never;
    {!passed} tells whether it would have run. A cancellable event (a
    timer, a link delivery) reserves its key this way too, schedules at
    it at once, and keeps the key to {!cancel} by. *)

val executing_seq : t -> int
(** The seq half of the key [(now t, executing_seq t)] of the event now
    running. Every key that sorts strictly before it has run (or would
    have, had it been scheduled); none at or after it has. A foreign
    event (see {!schedule_foreign}) publishes the next seq {!alloc_seq}
    would hand out, so the local keys reserved before it sort before it
    and those reserved while it runs sort after. Between {!run} calls it
    is the next seq as the last run left it: every key reserved until
    then at or before [now] has passed, and keys reserved since have
    not. Allocates nothing. *)

val passed : t -> time:Time.t -> seq:int -> bool
(** Whether the key [(time, seq)] sorts strictly before the executing key
    — i.e. whether an event reserved at that key would already have run.
    This is how a lazy event that was reserved with {!alloc_seq} but
    never scheduled (a port's transmission completion) is known to be
    over: comparing [time] against [now] alone would reorder same-instant
    ties. Allocates nothing. *)

val schedule_keyed : t -> time:Time.t -> seq:int -> (unit -> unit) -> unit
(** Schedule with an explicit sequence key previously reserved with
    {!alloc_seq}: the event runs exactly where one scheduled at
    reservation time would have. The time must not be in the past; the
    seq must be non-negative. *)

val cancel : t -> time:Time.t -> seq:int -> unit
(** Skip the event queued at key [(time, seq)] when it comes up.
    Cancelling a key that has {!passed} (its event ran), a key cancelled
    before, or a key reserved with {!alloc_seq} but never scheduled is a
    no-op. The mark costs one entry in a second heap until the run loop
    reaches its key. *)

val foreign_seq_base : int
(** Local events take sequence numbers counting up from 0; keys at or
    above this base are reserved for {!schedule_foreign}. *)

val schedule_foreign : t -> time:Time.t -> seq:int -> (unit -> unit) -> unit
(** Schedule with an explicit sequence key instead of the engine's own
    counter — the shard-merge entry point: events arriving from another
    shard carry a key that is a deterministic function of their origin,
    so the heap order (hence the execution) is independent of the domain
    schedule that delivered them. [seq] must be at least
    {!foreign_seq_base} (so foreign arrivals never interleave local
    events of the same instant) and [time] must not be in the past. *)

val next_time : t -> Time.t option
(** Time of the earliest queued event (cancelled ones included), or
    [None] when the queue is empty — the engine-side input to a
    conservative shard's time promise. *)

val run : ?until:Time.t -> ?max_events:int -> t -> unit
(** Drain the event queue. [until] stops the clock at that time (events
    scheduled later remain queued); without it, a drained run leaves the
    clock at the last event it executed — which is never a reserved key
    that was left unscheduled (a lazy port completion), so a drained run
    can end before the last transmission finishes. [max_events] guards
    against runaway simulations: a run it stops with events still due by
    [until] leaves the clock at the last event it ran, so those events
    still run at their own time. The loop allocates nothing: an event of
    a registered kind costs no words from post to run, and a closure
    event costs only the closure its caller built. *)

val pending : t -> int
(** Events still queued (including cancelled ones not yet skipped). *)

val executed : t -> int
(** Cumulative count of callbacks actually run (cancelled events are
    skipped, not counted). At a deterministic simulated-time boundary
    this is a pure function of the simulation — the load signal the
    shard re-balancer packs workers by. Reserved keys that are never
    scheduled (a port completion with nothing queued behind it) run no
    callback and are not counted. *)

val executed_kind : t -> kind -> int
(** Cumulative count of events of one kind actually run, as {!executed}
    counts them all: a plain int array the run loop bumps, so keeping it
    costs nothing per event. *)
