(** Deterministic, seeded fault injection for the simulated internetwork.

    The injector is the single place an experiment configures everything
    that can go wrong: per-link bit errors aimed at a packet region
    ({!Corrupt}), links failing and recovering on a schedule or flapping
    stochastically, routers crashing and restarting (dropping queued frames
    and wiping soft state, per §6.3 "routers hold only soft state"), and a
    directory that keeps serving routes whose links have since died.

    Everything is driven off the simulation engine and a private
    {!Sim.Rng} stream, so a run with equal seed, topology and workload
    reproduces its faults bit-for-bit.

    Creating an injector installs the world's corruptor hook
    ({!Netsim.World.set_corruptor}); one injector per world. *)

type t

type stats = {
  mutable links_failed : int;
  mutable links_restored : int;
  mutable crashes : int;
  mutable restarts : int;
  mutable frames_corrupted : int;
  mutable bits_flipped : int;
  mutable header_corruptions : int;  (** frames hit by a [Header]-region spec *)
  mutable payload_corruptions : int;
  mutable trailer_corruptions : int;
  mutable directory_freezes : int;
}

val create : ?seed:int64 -> Netsim.World.t -> t
val stats : t -> stats

val region_seed : base:int64 -> region:int -> int64
(** Derive the seed for region [region]'s shard-resident injector from
    one experiment seed (splitmix64 over the region index): streams are
    decorrelated across regions yet a pure function of (base, region),
    so a region-sharded fault matrix replays identical per-region damage
    at every shard width, including the serial reference. *)

(** {1 Corruption} *)

val set_link_corruption : t -> link:Topo.Graph.link -> Corrupt.spec -> unit
(** Every frame entering [link] (either direction) is damaged per the spec;
    replaces any previous spec for the link. *)

(** {1 Link failure and flapping}

    All transitions are edge-checked against the live topology: failing a
    dead link or restoring a live one is a no-op and not counted, so
    scheduled and stochastic faults compose on the same link. *)

val flap_link :
  t -> ?start:Sim.Time.t -> ?until:Sim.Time.t -> mean_up:Sim.Time.t ->
  mean_down:Sim.Time.t -> Topo.Graph.link -> unit
(** Alternate the link between up and down with exponentially distributed
    durations of the given means, beginning up at [start] (default 0). No
    new failure is scheduled at or after [until], but a pending restore
    still runs — the link is never left dead by the window closing. *)

(** {1 Router crashes} *)

val crash_router_at :
  t -> at:Sim.Time.t -> ?down_for:Sim.Time.t -> Sirpent.Router.t -> unit
(** Crash the router at [at] (see {!Sirpent.Router.crash}: purges its
    outports, flushes the token cache, resets congestion limiters, abandons
    deferred work). With [down_for] it restarts that much later. *)

(** {1 Directory staleness} *)

val freeze_directory_at :
  t -> at:Sim.Time.t -> ?thaw_after:Sim.Time.t -> Dirsvc.Directory.t -> unit
(** From [at] the directory replays memoized answers — routes whose links
    may be dead — instead of recomputing (see
    {!Dirsvc.Directory.set_frozen}); [thaw_after] ends the freeze. *)
