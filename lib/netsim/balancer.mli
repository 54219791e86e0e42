(** Profile-guided over-decomposition of a region partition.

    The online half of load-adaptive re-balancing lives in
    {!Shard.run} (shard->worker ownership re-packing at quiescent
    points); this is the offline half: given per-region load
    from a profiling run, split hot regions into more shards so the
    online packer has pieces small enough to balance. Both halves are
    pure functions of simulation-derived telemetry, so the whole
    pipeline replays identically run over run and the simulation
    results remain bit-identical to serial. *)

type outcome = {
  part : Partition.t;  (** the refined partition *)
  splits : (int * int) list;
      (** (original region, ways) actually applied, in region order *)
  refusals : int;
      (** split requests degraded because the region was
          {!Partition.Unsplittable} — counted, never raised *)
}

val plan : Partition.t -> load:(int -> int) -> target:int -> outcome
(** Apportion [target] shards over the regions proportionally to
    [load] (events executed per original region; highest-averages
    apportionment, deterministic tie-breaks) and refine each region
    granted more than one shard, packing its atoms by node count.
    Raises [Invalid_argument] on [target < 1]. *)
