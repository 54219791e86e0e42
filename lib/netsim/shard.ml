(* Region-sharded simulation cluster: one engine + world per region of a
   {!Partition.t}, stitched together over unbounded SPSC channels at the
   gateway links and driven by the conservative driver, {!run}.

   Determinism by construction: every event in every engine carries a
   unique total (time, seq) key. Local events get dense local seqs;
   a frame crossing gateway [i] in direction [d] (0 = a->b, 1 = b->a)
   enters the peer engine with

     seq = Engine.foreign_seq_base + m_seq * (2 * gateways) + (2*i + d)

   where [m_seq] is the per-directed-channel message counter, assigned by
   the producing shard in simulation-event order (itself deterministic).
   Channel dir indices are disjoint and every producer is deterministic,
   so the key — and hence the execution order — is independent of the
   domain schedule, and any shard count replays the identical event
   sequence.

   Promises are per directed gateway channel: each region's shard clock
   keeps one {!Sim.Shard_engine} edge per egress dir, with that edge's
   own lookahead — the gateway link's propagation, plus the minimum
   transmission time when the trunk is operated store-and-forward (its
   {!profile}). A consumer's safe time is the min over only its own
   incoming dirs, so a producer with several neighbors bounds each by
   the tightest edge-local promise instead of one region-wide scalar. *)

module G = Topo.Graph

(* A frame crossing a gateway, with its buffer: the consumer's frame is
   a fresh [Frame.t] over the producer's window. The ownership rule
   ({!Frame}) makes sharing the buffer across domains safe. The egress
   proxy is where the packet leaves the producer's world
   ({!World.hand_off}): once it has pushed the message, nothing in the
   producer's region reads the buffer or writes it again (no buffer is
   recycled), and the push publishes the producer's writes. From then
   on the consumer's nodes are its only writers. *)
type message = {
  seq : int;  (** the import's engine key (see above), producer-assigned *)
  head : Sim.Time.t;
  tail : Sim.Time.t;
  payload : bytes;  (** the producer's buffer, window and tailroom *)
  off : int;  (** where the window starts *)
  len : int;  (** the window's length *)
  priority : Token.Priority.t;
  drop_if_blocked : bool;
  aborted : bool;
  carried : Telemetry.Flight.carried option;
}

(* Fills an inbox's free slots, so they keep no buffer alive. *)
let no_message =
  { seq = 0; head = 0; tail = 0; payload = Bytes.empty; off = 0; len = 0;
    priority = Token.Priority.normal; drop_if_blocked = false; aborted = false;
    carried = None }

type profile = {
  store_and_forward : bool;
      (** operate the gateway link store-and-forward in both region
          worlds: heads leave only fully serialized, which is what makes
          the [min_frame_bytes] term of the lookahead sound *)
  min_frame_bytes : int;
      (** smallest frame the workload sends over this trunk; adds the
          matching transmission time to both dirs' lookaheads when
          [store_and_forward] is set, ignored otherwise (under
          cut-through a head outruns serialization) *)
}

let default_profile = { store_and_forward = false; min_frame_bytes = 0 }

type shard = {
  engine : Sim.Engine.t;
  world : World.t;
  clock : Sim.Shard_engine.t;
  egress : Telemetry.Registry.Counter.t;
  ingress : Telemetry.Registry.Counter.t;
  meta_dropped : Telemetry.Registry.Counter.t;
  (* the crossings posted to this engine, one slot each: the payload of
     an import event *)
  imports : Sim.Slab.t;
  mutable inbox : message array;
  mutable import : Sim.Engine.kind;
}

type t = {
  part : Partition.t;
  members : shard array;  (** index = region *)
  channels : message Parallel.Spsc.t array;
      (** index = channel dir; messages in simulation order *)
  m_seq : int array;  (** per dir; producer-owned, read after the run *)
  in_dirs : int array array;  (** per region: dirs delivering into it *)
  out_dirs : int array array;
      (** per region: egress dirs in gateway order; the shard clock's
          edge [e] is dir [out_dirs.(r).(e)] *)
  deliver : (message -> unit) array;  (** per dir: consumer-side import *)
}

type region_load = {
  rounds : int;
  advances : int;
  null_messages : int;
  events : int;
}

type stats = {
  shards : int;
  regions : int;
  rounds : int;
  null_messages : int;
  cross_frames : int;
  epochs : int;
  migrations : int;
  wall_clock_s : float;
  cpu_time_s : float;
  per_region : region_load array;
}

(* Consumer-side half of a channel: post the crossing into the
   destination engine as an import event at the frame's head-arrival
   time. The stamp can never be in the past: the producer pushed it
   before publishing a promise at or below [head], and the consumer's
   clock stays strictly below the minimum in-promise it last read. *)
let post_import sh (msg : message) =
  let slot = Sim.Slab.take sh.imports in
  if Array.length sh.inbox < Sim.Slab.capacity sh.imports then
    sh.inbox <- Sim.Slab.fit sh.imports sh.inbox no_message;
  sh.inbox.(slot) <- msg;
  Sim.Engine.post_keyed sh.engine ~time:msg.head ~seq:msg.seq ~kind:sh.import slot

(* The import event in [slot]: the crossing leaves the inbox, and its
   frame arrives at the real endpoint's original port (dir 2i runs from
   the gateway link's a end to its b end, dir 2i+1 back). *)
let import t sh slot =
  let msg = sh.inbox.(slot) in
  let ngw = Array.length t.part.Partition.gateways in
  let dir = (msg.seq - Sim.Engine.foreign_seq_base) mod (2 * ngw) in
  sh.inbox.(slot) <- no_message;
  Sim.Slab.release sh.imports slot;
  Telemetry.Registry.Counter.incr sh.ingress;
  let frame =
    World.import_frame sh.world ~priority:msg.priority
      ~drop_if_blocked:msg.drop_if_blocked ~carried:msg.carried ~aborted:msg.aborted
      ~off:msg.off ~len:msg.len msg.payload
  in
  let l = t.part.Partition.gateways.(dir / 2).Partition.gw_link and b = dir land 1 = 0 in
  World.deliver_direct sh.world ~node:(if b then l.G.b else l.G.a)
    ~in_port:(if b then l.G.b_port else l.G.a_port) ~frame ~head:msg.head ~tail:msg.tail

(* Whether the channels of [dirs] are all empty. *)
let drained t dirs =
  let i = ref 0 in
  while !i < Array.length dirs && Parallel.Spsc.is_empty t.channels.(dirs.(!i)) do
    incr i
  done;
  !i = Array.length dirs

(* The min over the promises of [dirs]: a region's safe_in. *)
let min_promise promises dirs =
  let m = ref max_int in
  for i = 0 to Array.length dirs - 1 do
    m := Int.min !m (Atomic.get promises.(dirs.(i)))
  done;
  !m

let create ?profiles (part : Partition.t) =
  let regions = part.Partition.regions in
  let ngw = Array.length part.Partition.gateways in
  let profiles =
    match profiles with
    | None -> Array.make ngw default_profile
    | Some p ->
      if Array.length p <> ngw then
        invalid_arg "Shard.create: profiles length <> gateways";
      p
  in
  (* Egress dirs per region, in gateway order: dir 2i is a->b (producer =
     a's region), dir 2i+1 is b->a. The position of a dir in its
     producer's list is that producer's shard-clock edge index. *)
  let out_rev = Array.make regions [] in
  Array.iteri
    (fun i (gw : Partition.gateway) ->
      out_rev.(gw.Partition.a_region) <- (2 * i) :: out_rev.(gw.Partition.a_region);
      out_rev.(gw.Partition.b_region) <-
        ((2 * i) + 1) :: out_rev.(gw.Partition.b_region))
    part.Partition.gateways;
  let out_dirs = Array.map (fun l -> Array.of_list (List.rev l)) out_rev in
  let edge_of_dir = Array.make (2 * ngw) 0 in
  Array.iter
    (fun dirs -> Array.iteri (fun e d -> edge_of_dir.(d) <- e) dirs)
    out_dirs;
  (* Per-edge lookahead: this gateway's propagation, plus the minimal
     serialization time when the trunk is store-and-forward. *)
  let lookahead_of_dir d =
    let p = profiles.(d / 2) in
    let props = part.Partition.gateways.(d / 2).Partition.gw_link.G.props in
    let base = props.G.propagation in
    if p.store_and_forward && p.min_frame_bytes > 0 then
      base
      + Sim.Time.transmission ~bits:(8 * p.min_frame_bytes)
          ~rate_bps:props.G.bandwidth_bps
    else base
  in
  let members =
    Array.init regions (fun region ->
        let engine = Sim.Engine.create () in
        let world = World.create engine part.Partition.graphs.(region) in
        let clock =
          Sim.Shard_engine.create_edges
            ~lookaheads:(Array.map lookahead_of_dir out_dirs.(region))
            engine
        in
        let m = World.metrics world in
        {
          engine;
          world;
          clock;
          egress =
            Telemetry.Registry.counter m
              ~help:"frames shipped out over a gateway channel"
              "netsim_gateway_egress_frames";
          ingress =
            Telemetry.Registry.counter m
              ~help:"frames imported from a gateway channel"
              "netsim_gateway_ingress_frames";
          meta_dropped =
            Telemetry.Registry.counter m
              ~help:"frames whose world-local metadata cannot cross a gateway"
              "netsim_shard_meta_dropped";
          imports = Sim.Slab.create ();
          inbox = [||];
          import = Sim.Engine.closure_kind;
        })
  in
  let channels = Array.init (2 * ngw) (fun _ -> Parallel.Spsc.create ()) in
  let m_seq = Array.make (2 * ngw) 0 in
  let in_dirs = Array.make regions [||] in
  let deliver = Array.make (2 * ngw) (fun (_ : message) -> ()) in
  let t = { part; members; channels; m_seq; in_dirs; out_dirs; deliver } in
  Array.iter (fun sh -> sh.import <- Sim.Engine.register sh.engine (import t sh)) members;
  (* Wire both directions of every gateway: the egress proxy in the
     producing region forwards deliveries into the channel; the consumer
     side re-injects them at the real endpoint's original port. *)
  Array.iteri
    (fun i (gw : Partition.gateway) ->
      let l = gw.Partition.gw_link in
      let prof = profiles.(i) in
      let wire ~dir ~src ~src_node ~src_port ~proxy ~dst =
        let producer = t.members.(src) in
        let edge = edge_of_dir.(dir) in
        t.deliver.(dir) <- post_import t.members.(dst);
        t.in_dirs.(dst) <- Array.append t.in_dirs.(dst) [| dir |];
        (* The region-local copy of the gateway link carries this dir's
           traffic (real endpoint -> proxy); give it the profile's wire
           discipline. *)
        (match G.link_via part.Partition.graphs.(src) src_node src_port with
        | Some local ->
          if prof.store_and_forward then
            World.set_store_and_forward producer.world ~link_id:local.G.link_id
        | None -> ());
        (* The tap fires when a transmission toward the proxy is
           scheduled: its head time joins the edge's pending-outbound
           multiset and caps the promise until the delivery fires (or is
           lazily discarded if preemption kills it). *)
        World.set_departure_tap producer.world ~node:proxy (fun ~head ->
            Sim.Shard_engine.note_outbound producer.clock ~edge ~head);
        World.set_handler producer.world proxy
          (fun _w ~in_port:_ ~frame ~head ~tail ->
            Sim.Shard_engine.outbound_sent producer.clock ~edge ~head;
            match frame.Frame.meta with
            | Some _ -> Telemetry.Registry.Counter.incr producer.meta_dropped
            | None ->
              let msg =
                {
                  seq = Sim.Engine.foreign_seq_base + (t.m_seq.(dir) * (2 * ngw)) + dir;
                  head;
                  tail;
                  payload = frame.Frame.payload;
                  off = frame.Frame.off;
                  len = frame.Frame.len;
                  priority = frame.Frame.priority;
                  drop_if_blocked = frame.Frame.drop_if_blocked;
                  aborted = frame.Frame.aborted;
                  carried = World.hand_off producer.world frame;
                }
              in
              t.m_seq.(dir) <- t.m_seq.(dir) + 1;
              Telemetry.Registry.Counter.incr producer.egress;
              Parallel.Spsc.push t.channels.(dir) msg)
      in
      wire ~dir:(2 * i) ~src:gw.Partition.a_region ~src_node:l.G.a
        ~src_port:l.G.a_port ~proxy:gw.Partition.a_proxy ~dst:gw.Partition.b_region;
      wire ~dir:((2 * i) + 1) ~src:gw.Partition.b_region ~src_node:l.G.b
        ~src_port:l.G.b_port ~proxy:gw.Partition.b_proxy ~dst:gw.Partition.a_region)
    part.Partition.gateways;
  t

let regions t = Array.length t.members
let world t r = t.members.(r).world
let engine t r = t.members.(r).engine
let graph t r = t.part.Partition.graphs.(r)
let region_of t node = t.part.Partition.region_of.(node)

(* {1 The conservative driver}

   Chandy–Misra–Bryant null-message synchronization over the regions,
   with load-adaptive ownership re-packing at deterministic quiescent
   points. Each directed gateway channel has one promise, written by its
   producing region's owner and read by its consumer. A worker loops
   over the regions it currently owns; per region and per round it

     1. reads safe_in: the min over the promises of the dirs feeding
        the region,
     2. drains the region's inboxes (any message sent before the
        promises it just read is already in its channel: producers push
        before they publish, so reading promises first closes the race),
     3. advances the region's engine strictly below safe_in, capped at
        the current epoch boundary,
     4. publishes one promise per egress edge (each that moved counts as
        a null message),
     5. retires the region once it ran through [until], no in-neighbor
        can send at or below it, and its inboxes are empty: its promises
        go to infinity and it is never serviced again.

   Re-balancing. With [epoch] set, simulated time is cut into epochs
   ending at boundaries T_k = k * epoch. [advance] is capped at the
   boundary, so every region parks at exactly T_k: a quiescent point at
   which each engine has executed precisely the events at or below T_k
   (parking requires safe_in > T_k, and promises are monotone, so no
   event at or below T_k can still arrive). Each epoch runs two phases:

     Phase A — workers keep fully servicing their regions (drain,
       advance, publish) until every region is parked. Passive waiting
       here would deadlock: promises must keep propagating through
       parked regions or their downstream neighbors could never reach
       the boundary.

     Phase B — each worker records its regions' executed-event counts
       (at a boundary a pure function of the simulation, not of the
       domain schedule), then arrives at a barrier. The last arriver
       re-packs region->worker ownership by a deterministic LPT
       bin-packing over the per-epoch deltas and releases the barrier.
       An ownership move is a migration: the region's engine, world and
       channels stay where they are and only the servicing domain
       changes, so simulation results are untouched by construction and
       the decision sequence replays identically at the same width.

   Retirement can only happen in the final epoch (a region must run
   through [until] first), so the Phase B barrier can never strand a
   worker that exited early: final epochs have no barrier and end when
   the live count reaches zero.

   Handoff. One generation counter per run is bumped by every event a
   starved worker could be waiting for: a promise that moved, a region
   that retired, a region that parked at a boundary, and the Phase B
   barrier's release. A worker reads the counter before each round; if
   the round made no progress it waits for the counter to change
   instead of running idle rounds. Every bump follows the state change
   it announces and every waiter reads the counter before the state it
   tests, so no wake-up is lost. Workers that fit in
   [Domain.recommended_domain_count ()] (counting the calling domain)
   spin on the counter without allocating; more workers than that would
   spin away the quantum a producer needs, so they spin briefly and then
   park on a mutex/condition pair.

   [shards = 1] runs the single worker in the calling domain and never
   spawns; any other width reuses {!Parallel.Pool}'s domains. *)

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

let run ?(shards = 1) ?epoch ~until t =
  if shards < 1 then invalid_arg "Shard.run: shards < 1";
  (match epoch with
  | Some e when e <= 0 -> invalid_arg "Shard.run: epoch must be positive"
  | _ -> ());
  let n = Array.length t.members in
  let groups = min shards n in
  (* fresh per run *)
  let promises = Array.init (Array.length t.channels) (fun _ -> Atomic.make 0) in
  (* Written only by a region's owning worker during an epoch; ownership
     changes only inside the Phase B barrier, whose atomics order the
     writes against the next owner's reads. *)
  let owner = Array.init n (fun r -> r mod groups) in
  let retired = Array.make n false in
  let work = Array.make n 0 in
  let prev_work = Array.make n 0 in
  let rounds = Array.make n 0 in
  let advances = Array.make n 0 in
  let nulls = Array.make n 0 in
  let remaining = Atomic.make n in
  let parked = Atomic.make 0 in
  let arrived = Atomic.make 0 in
  let phase = Atomic.make 0 in
  let migrations = Atomic.make 0 in
  let h = handoff ~workers:groups in
  (* Deterministic LPT re-packing over this epoch's executed-event
     deltas: sort by delta descending, region ascending; place each on
     the least-loaded worker, lowest id first. Weight is 1 + delta so
     idle regions still spread across workers instead of piling onto
     worker 0. *)
  let repack () =
    let delta = Array.init n (fun r -> work.(r) - prev_work.(r)) in
    Array.blit work 0 prev_work 0 n;
    let order = Array.init n (fun r -> r) in
    Array.sort
      (fun a b -> match compare delta.(b) delta.(a) with 0 -> compare a b | c -> c)
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
  (* One round of service for region [r] (steps 1-5 above), then the
     boundary check; whether anything moved. Plain loops over the dirs:
     a round allocates nothing. *)
  let service ~final ~cap counted r =
    let sh = t.members.(r) in
    let ins = t.in_dirs.(r) and outs = t.out_dirs.(r) in
    let progressed = ref false in
    if not retired.(r) then begin
      let safe_in = min_promise promises ins in
      for i = 0 to Array.length ins - 1 do
        Parallel.Spsc.drain t.channels.(ins.(i)) t.deliver.(ins.(i))
      done;
      rounds.(r) <- rounds.(r) + 1;
      if Sim.Shard_engine.advance sh.clock ~safe_in ~cap then begin
        advances.(r) <- advances.(r) + 1;
        progressed := true
      end;
      let moved = ref 0 in
      for e = 0 to Array.length outs - 1 do
        let p = Sim.Shard_engine.promise_edge sh.clock ~edge:e ~safe_in in
        if p > Atomic.get promises.(outs.(e)) then begin
          Atomic.set promises.(outs.(e)) p;
          incr moved
        end
      done;
      if !moved > 0 then begin
        nulls.(r) <- nulls.(r) + !moved;
        progressed := true;
        bump h
      end;
      if final && Sim.Shard_engine.finished sh.clock ~safe_in ~until && drained t ins
      then begin
        retired.(r) <- true;
        Array.iter (fun d -> Atomic.set promises.(d) max_int) outs;
        Atomic.decr remaining;
        progressed := true;
        bump h
      end
    end;
    if (not final) && (not counted.(r)) && Sim.Shard_engine.reached sh.clock ~cap then begin
      counted.(r) <- true;
      Atomic.incr parked;
      progressed := true;
      bump h
    end;
    !progressed
  in
  let worker g () =
    let counted = Array.make n false in
    let my_rounds = ref 0 in
    let my_phase = ref 0 in
    let running = ref true in
    while !running do
      let mine = Array.of_list (List.filter (fun r -> owner.(r) = g) (List.init n Fun.id)) in
      let boundary = match epoch with Some e -> (!my_phase + 1) * e | None -> until in
      let final = boundary >= until in
      let cap = if final then until else boundary in
      Array.fill counted 0 n false;
      (* Phase A *)
      let in_a = ref true in
      while !in_a do
        incr my_rounds;
        let seen = Atomic.get h.gen in
        let progressed = ref false in
        for i = 0 to Array.length mine - 1 do
          if service ~final ~cap counted mine.(i) then progressed := true
        done;
        if final && Atomic.get remaining = 0 then begin
          in_a := false;
          running := false
        end
        else if (not final) && Atomic.get parked = n then in_a := false
        else if not !progressed then
          (* starved: our regions wait on promises owned by other domains *)
          wait h seen
      done;
      (* Phase B: every region is parked at [cap]. *)
      if !running then begin
        Array.iter (fun r -> work.(r) <- Sim.Engine.executed t.members.(r).engine) mine;
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
    !my_rounds
  in
  let wall0 = Unix.gettimeofday () in
  let cpu0 = Sys.time () in
  let per_group =
    if groups = 1 then [| worker 0 () |]
    else Parallel.Pool.run_exn ~jobs:groups (Array.init groups (fun g -> worker g))
  in
  let wall = Unix.gettimeofday () -. wall0 in
  let cpu = Sys.time () -. cpu0 in
  {
    shards = groups;
    regions = n;
    rounds = Array.fold_left max 0 per_group;
    null_messages = Array.fold_left ( + ) 0 nulls;
    cross_frames = Array.fold_left ( + ) 0 t.m_seq;
    epochs = Atomic.get phase;
    migrations = Atomic.get migrations;
    wall_clock_s = wall;
    cpu_time_s = cpu;
    per_region =
      Array.init n (fun r ->
          {
            rounds = rounds.(r);
            advances = advances.(r);
            null_messages = nulls.(r);
            events = Sim.Engine.executed t.members.(r).engine;
          });
  }

(* Merged telemetry: folded in fixed region order, so the merged view is
   identical for every shard count (the per-region state is). *)

let merged_rows t =
  Telemetry.Merge.rows
    (Array.to_list
       (Array.map
          (fun sh -> Telemetry.Registry.snapshot (World.metrics sh.world))
          t.members))

let merged_events t =
  Telemetry.Merge.events
    (Array.to_list
       (Array.map (fun sh -> Telemetry.Events.entries (World.events sh.world)) t.members))

let merged_flights t =
  Telemetry.Merge.flights
    (Array.to_list
       (Array.map (fun sh -> Telemetry.Flight.flights (World.flight sh.world)) t.members))
