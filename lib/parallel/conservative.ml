(* The conservative (null-message) synchronization driver, with
   load-adaptive ownership re-packing at deterministic quiescent points.

   Endpoints are shards of one simulation. Promises now live behind the
   endpoints (per egress edge, owned by the shard layer); the driver
   only sees them through [safe_in] (min over in-neighbor promises) and
   [publish] (recompute and publish this shard's promises, returning how
   many moved). A worker loops over the shards it currently owns; per
   shard and per round it

     1. reads safe_in,
     2. drains the shard's inboxes (any message sent before the
        promises it just read is already in its channel: producers push
        before they publish, so reading promises first closes the race),
     3. advances the shard's engine strictly below safe_in, capped at
        the current epoch boundary,
     4. publishes the shard's promises (each moved value counts as a
        null message),
     5. retires the shard once it ran through [until], no in-neighbor
        can send at or below it, and its inboxes are empty.

   Re-balancing. With [epoch] set, simulated time is cut into epochs
   ending at boundaries T_k = k * epoch. [advance] is capped at the
   boundary, so every shard parks at exactly T_k: a quiescent point at
   which each engine has executed precisely the events at or below T_k
   (parking requires safe_in > T_k, and promises are monotone, so no
   event at or below T_k can still arrive). Each epoch runs two phases:

     Phase A — workers keep fully servicing their shards (drain,
       advance, publish) until every shard in the run is parked.
       Passive waiting here would deadlock: promises must keep
       propagating through parked shards or their downstream neighbors
       could never reach the boundary.

     Phase B — each worker writes its shards' cumulative executed-event
       counters (the [work] closure; at a boundary this is a pure
       function of the simulation, not of the domain schedule), then
       arrives at a barrier. The last arriver re-packs shard->worker
       ownership by a deterministic LPT bin-packing over the per-epoch
       deltas (sort by delta descending, shard id ascending; place each
       on the least-loaded worker, lowest id first) and releases the
       barrier. Ownership moves are migrations: the shard's engine,
       world and channels stay where they are — only the servicing
       domain changes, so simulation results are untouched by
       construction and the decision sequence replays identically on
       every re-run at the same width.

   Retirement can only happen in the final epoch (a shard must run
   through [until] first), so the Phase B barrier can never strand a
   worker that exited early: final epochs have no barrier and end when
   the global live count reaches zero.

   Handoff. One generation counter per run is bumped by every event a
   starved worker could be waiting for: a promise that moved, a shard
   that retired, a shard that parked at a boundary, and the Phase B
   barrier's release. A worker reads the counter before each round; if
   the round made no progress it waits for the counter to change
   instead of running idle rounds, which allocate and count as sync
   rounds. Every bump follows the state change it announces and every
   waiter reads the counter before the state it tests, so no wake-up
   is lost. Workers that fit in [Domain.recommended_domain_count ()]
   (counting the calling domain) spin on the counter without
   allocating; more workers than that would spin away the quantum a
   producer needs, so they spin briefly and then park ([wait]).

   [shards = 1] runs the single worker in the calling domain and never
   spawns; any other width reuses {!Pool}'s domains. Determinism does
   not depend on the grouping: messages carry totally ordered
   (time, seq) keys, so each shard's engine executes the same sequence
   whatever the domain schedule. *)

type endpoint = {
  drain : unit -> unit;
  inbox_empty : unit -> bool;
  safe_in : unit -> Sim.Time.t;
  advance : safe_in:Sim.Time.t -> cap:Sim.Time.t -> bool;
  publish : safe_in:Sim.Time.t -> int;
  reached : cap:Sim.Time.t -> bool;
  at_end : safe_in:Sim.Time.t -> bool;
  on_retire : unit -> unit;
  work : unit -> int;
}

type shard_load = {
  rounds : int;
  advances : int;
  null_moves : int;
  events : int;
}

type stats = {
  shards : int;
  rounds : int;
  null_messages : int;
  epochs : int;
  migrations : int;
  per_shard : shard_load array;
}

(* The generation counter and, for the park regime, the sleepers'
   mutex/condition pair. *)
type handoff = {
  gen : int Atomic.t;
  park : bool;  (* more workers than the machine has cores *)
  sleepers : int Atomic.t;
  lock : Mutex.t;
  wake : Condition.t;
}

(* Spins before a worker in the park regime takes the lock. *)
let park_after = 64

let handoff ~workers =
  {
    gen = Atomic.make 0;
    park = workers > Domain.recommended_domain_count ();
    sleepers = Atomic.make 0;
    lock = Mutex.create ();
    wake = Condition.create ();
  }

let bump h =
  Atomic.incr h.gen;
  if h.park && Atomic.get h.sleepers > 0 then begin
    Mutex.lock h.lock;
    Condition.broadcast h.wake;
    Mutex.unlock h.lock
  end

(* Return once the counter differs from [seen]. A sleeper increments
   [sleepers] before its check under the lock, and a bump increments
   [gen] before it reads [sleepers], so either the bump sees the sleeper
   and broadcasts (after the sleeper waits: it holds the lock until
   then) or the sleeper's check sees the bump. *)
let wait h seen =
  if not h.park then
    while Atomic.get h.gen = seen do
      Domain.cpu_relax ()
    done
  else begin
    let spins = ref 0 in
    while Atomic.get h.gen = seen && !spins < park_after do
      incr spins;
      Domain.cpu_relax ()
    done;
    if Atomic.get h.gen = seen then begin
      Mutex.lock h.lock;
      Atomic.incr h.sleepers;
      while Atomic.get h.gen = seen do
        Condition.wait h.wake h.lock
      done;
      Atomic.decr h.sleepers;
      Mutex.unlock h.lock
    end
  end

let run ?(shards = 1) ?epoch ~until (endpoints : endpoint array) =
  let n = Array.length endpoints in
  if shards < 1 then invalid_arg "Conservative.run: shards < 1";
  (match epoch with
  | Some e when e <= 0 -> invalid_arg "Conservative.run: epoch must be positive"
  | _ -> ());
  if n = 0 then
    {
      shards = 0;
      rounds = 0;
      null_messages = 0;
      epochs = 0;
      migrations = 0;
      per_shard = [||];
    }
  else begin
    let groups = max 1 (min shards n) in
    (* Written only by a shard's owning worker during an epoch; ownership
       changes only inside the Phase B barrier, whose atomics order the
       writes against the next owner's reads. *)
    let owner = Array.init n (fun r -> r mod groups) in
    let retired = Array.make n false in
    let work = Array.make n 0 in
    let prev_work = Array.make n 0 in
    let s_rounds = Array.make n 0 in
    let s_advances = Array.make n 0 in
    let s_nulls = Array.make n 0 in
    let remaining = Atomic.make n in
    let parked = Atomic.make 0 in
    let arrived = Atomic.make 0 in
    let phase = Atomic.make 0 in
    let migrations = Atomic.make 0 in
    let h = handoff ~workers:groups in
    (* Deterministic LPT re-packing over this epoch's executed-event
       deltas. Weight is 1 + delta so idle shards still spread across
       workers instead of piling onto worker 0. *)
    let repack () =
      let delta = Array.init n (fun r -> work.(r) - prev_work.(r)) in
      Array.blit work 0 prev_work 0 n;
      let order = Array.init n (fun r -> r) in
      Array.sort
        (fun a b ->
          match compare delta.(b) delta.(a) with 0 -> compare a b | c -> c)
        order;
      let load = Array.make groups 0 in
      Array.iter
        (fun r ->
          let g = ref 0 in
          for j = 1 to groups - 1 do
            if load.(j) < load.(!g) then g := j
          done;
          if owner.(r) <> !g then Atomic.incr migrations;
          owner.(r) <- !g;
          load.(!g) <- load.(!g) + 1 + delta.(r))
        order
    in
    let worker g () =
      let counted = Array.make n false in
      let rounds = ref 0 and nulls = ref 0 in
      let my_phase = ref 0 in
      let running = ref true in
      while !running do
        let mine = ref [] in
        for r = n - 1 downto 0 do
          if owner.(r) = g then mine := r :: !mine
        done;
        let boundary =
          match epoch with Some e -> (!my_phase + 1) * e | None -> until
        in
        let final = boundary >= until in
        let cap = if final then until else boundary in
        Array.fill counted 0 n false;
        (* Phase A *)
        let in_a = ref true in
        while !in_a do
          incr rounds;
          let seen = Atomic.get h.gen in
          let progressed = ref false in
          List.iter
            (fun r ->
              if not retired.(r) then begin
                let ep = endpoints.(r) in
                let safe = ep.safe_in () in
                ep.drain ();
                s_rounds.(r) <- s_rounds.(r) + 1;
                if ep.advance ~safe_in:safe ~cap then begin
                  s_advances.(r) <- s_advances.(r) + 1;
                  progressed := true
                end;
                let moved = ep.publish ~safe_in:safe in
                if moved > 0 then begin
                  nulls := !nulls + moved;
                  s_nulls.(r) <- s_nulls.(r) + moved;
                  progressed := true;
                  bump h
                end;
                if final && ep.at_end ~safe_in:safe && ep.inbox_empty ()
                then begin
                  retired.(r) <- true;
                  ep.on_retire ();
                  ignore (Atomic.fetch_and_add remaining (-1));
                  progressed := true;
                  bump h
                end
              end;
              if
                (not final)
                && (not counted.(r))
                && endpoints.(r).reached ~cap
              then begin
                counted.(r) <- true;
                Atomic.incr parked;
                progressed := true;
                bump h
              end)
            !mine;
          if final && Atomic.get remaining = 0 then begin
            in_a := false;
            running := false
          end
          else if (not final) && Atomic.get parked = n then in_a := false
          else if not !progressed then
            (* Starved: our shards wait on promises owned by other
               domains. *)
            wait h seen
        done;
        (* Phase B: every shard in the run is parked at [cap]. *)
        if !running then begin
          List.iter (fun r -> work.(r) <- (endpoints.(r)).work ()) !mine;
          if 1 + Atomic.fetch_and_add arrived 1 = groups then begin
            repack ();
            Atomic.set arrived 0;
            Atomic.set parked 0;
            Atomic.incr phase;
            bump h
          end
          else begin
            let rec await () =
              let seen = Atomic.get h.gen in
              if Atomic.get phase = !my_phase then begin
                wait h seen;
                await ()
              end
            in
            await ()
          end;
          incr my_phase
        end
      done;
      (!rounds, !nulls)
    in
    let per_group =
      if groups = 1 then [| worker 0 () |]
      else
        Pool.run_exn ~jobs:groups
          (Array.init groups (fun g -> fun () -> worker g ()))
    in
    let rounds = Array.fold_left (fun acc (r, _) -> max acc r) 0 per_group in
    let null_messages =
      Array.fold_left (fun acc (_, nl) -> acc + nl) 0 per_group
    in
    let per_shard =
      Array.init n (fun r ->
          {
            rounds = s_rounds.(r);
            advances = s_advances.(r);
            null_moves = s_nulls.(r);
            events = (endpoints.(r)).work ();
          })
    in
    {
      shards = groups;
      rounds;
      null_messages;
      epochs = Atomic.get phase;
      migrations = Atomic.get migrations;
      per_shard;
    }
  end
