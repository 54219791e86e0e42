(* Profile-guided over-decomposition planner.

   Takes the per-region load measured by a previous run (events executed
   per region — a pure function of the simulation, never wall clock) and
   apportions a target shard count across regions by iterated highest
   averages (D'Hondt: each extra shard goes to the region maximizing
   load/shards-so-far, ties to the lowest region id), then applies
   {!Partition.refine} region by region. Refinement keeps original
   region numbers stable (sub-regions are appended), so the load table
   stays valid throughout and the split sequence is a deterministic
   function of (partition, loads, target): every re-run replays it.

   A region that refuses to split (single atom under its zero-latency
   links) is counted and skipped — the plan degrades to a coarser
   partition instead of raising. *)

type outcome = {
  part : Partition.t;
  splits : (int * int) list;
  refusals : int;
}

let apportion ~loads ~target =
  let r = Array.length loads in
  let ways = Array.make r 1 in
  for _ = r + 1 to target do
    let best = ref 0 in
    for i = 1 to r - 1 do
      (* loads.(i) / ways.(i) > loads.(best) / ways.(best), exactly *)
      if loads.(i) * ways.(!best) > loads.(!best) * ways.(i) then best := i
    done;
    ways.(!best) <- ways.(!best) + 1
  done;
  ways

let plan (part : Partition.t) ~load ~target =
  if target < 1 then invalid_arg "Balancer.plan: target < 1";
  let r0 = part.Partition.regions in
  let loads = Array.init r0 (fun r -> max 0 (load r)) in
  let ways = apportion ~loads ~target in
  let cur = ref part in
  let splits = ref [] in
  let refusals = ref 0 in
  for region = 0 to r0 - 1 do
    if ways.(region) > 1 then begin
      match Partition.refine !cur ~region ~ways:ways.(region) with
      | Ok p ->
        cur := p;
        splits := (region, ways.(region)) :: !splits
      | Error _ -> incr refusals
    end
  done;
  { part = !cur; splits = List.rev !splits; refusals = !refusals }
