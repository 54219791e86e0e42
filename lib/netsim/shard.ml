(* Region-sharded simulation cluster: one engine + world per region of a
   {!Partition.t}, stitched together over unbounded SPSC channels at the
   gateway links and driven by {!Parallel.Conservative}.

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

type message = {
  m_seq : int;  (** per-directed-channel counter, producer-assigned *)
  head : Sim.Time.t;
  tail : Sim.Time.t;
  payload : bytes;
      (** a copy of the frame's window and the tailroom behind it: no
          buffer is shared across domains *)
  len : int;  (** the window's length *)
  priority : Token.Priority.t;
  drop_if_blocked : bool;
  aborted : bool;
  carried : Telemetry.Flight.carried option;
}

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
  region : int;
  engine : Sim.Engine.t;
  world : World.t;
  clock : Sim.Shard_engine.t;
  egress : Telemetry.Registry.Counter.t;
  ingress : Telemetry.Registry.Counter.t;
  meta_dropped : Telemetry.Registry.Counter.t;
}

type t = {
  part : Partition.t;
  members : shard array;  (** index = region *)
  channels : message Parallel.Spsc.t array;
      (** index = channel dir; messages in simulation order *)
  m_seq : int array;  (** per dir; producer-owned, read after the run *)
  in_dirs : int list array;  (** per region: dirs delivering into it *)
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

(* Consumer-side half of channel [dir]: schedule the crossing into the
   destination engine at the frame's head-arrival time. The stamp can
   never be in the past: the producer pushed it before publishing a
   promise at or below [head], and the consumer's clock stays strictly
   below the minimum in-promise it last read. *)
let deliverer members ~ngw ~dir ~dst ~node ~in_port =
  fun (msg : message) ->
    let sh = members.(dst) in
    let seq = Sim.Engine.foreign_seq_base + (msg.m_seq * (2 * ngw)) + dir in
    Sim.Engine.schedule_foreign sh.engine ~time:msg.head ~seq (fun () ->
        Telemetry.Registry.Counter.incr sh.ingress;
        let flight =
          match msg.carried with
          | None -> None
          | Some c -> Telemetry.Flight.import (World.flight sh.world) c
        in
        let frame =
          World.import_frame sh.world ~priority:msg.priority
            ~drop_if_blocked:msg.drop_if_blocked ?flight ~aborted:msg.aborted
            ~len:msg.len msg.payload
        in
        World.deliver_direct sh.world ~node ~in_port ~frame ~head:msg.head
          ~tail:msg.tail)

let drain_region t r =
  List.iter
    (fun dir -> Parallel.Spsc.drain t.channels.(dir) t.deliver.(dir))
    t.in_dirs.(r)

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
          region;
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
        })
  in
  let channels = Array.init (2 * ngw) (fun _ -> Parallel.Spsc.create ()) in
  let m_seq = Array.make (2 * ngw) 0 in
  let in_dirs = Array.make regions [] in
  let deliver = Array.make (2 * ngw) (fun (_ : message) -> ()) in
  let t = { part; members; channels; m_seq; in_dirs; out_dirs; deliver } in
  (* Wire both directions of every gateway: the egress proxy in the
     producing region forwards deliveries into the channel; the consumer
     side re-injects them at the real endpoint's original port. *)
  Array.iteri
    (fun i (gw : Partition.gateway) ->
      let l = gw.Partition.gw_link in
      let prof = profiles.(i) in
      let wire ~dir ~src ~src_node ~src_port ~proxy ~dst ~node ~in_port =
        let producer = t.members.(src) in
        let edge = edge_of_dir.(dir) in
        t.deliver.(dir) <- deliverer members ~ngw ~dir ~dst ~node ~in_port;
        t.in_dirs.(dst) <- t.in_dirs.(dst) @ [ dir ];
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
                  m_seq = t.m_seq.(dir);
                  head;
                  tail;
                  payload =
                    Bytes.sub frame.Frame.payload frame.Frame.off
                      (Bytes.length frame.Frame.payload - frame.Frame.off);
                  len = frame.Frame.len;
                  priority = frame.Frame.priority;
                  drop_if_blocked = frame.Frame.drop_if_blocked;
                  aborted = frame.Frame.aborted;
                  carried = Option.map Telemetry.Flight.export frame.Frame.flight;
                }
              in
              t.m_seq.(dir) <- t.m_seq.(dir) + 1;
              Telemetry.Registry.Counter.incr producer.egress;
              Parallel.Spsc.push t.channels.(dir) msg)
      in
      wire ~dir:(2 * i) ~src:gw.Partition.a_region ~src_node:l.G.a
        ~src_port:l.G.a_port ~proxy:gw.Partition.a_proxy
        ~dst:gw.Partition.b_region ~node:l.G.b ~in_port:l.G.b_port;
      wire ~dir:((2 * i) + 1) ~src:gw.Partition.b_region ~src_node:l.G.b
        ~src_port:l.G.b_port ~proxy:gw.Partition.b_proxy
        ~dst:gw.Partition.a_region ~node:l.G.a ~in_port:l.G.a_port)
    part.Partition.gateways;
  t

let regions t = Array.length t.members
let world t r = t.members.(r).world
let engine t r = t.members.(r).engine
let graph t r = t.part.Partition.graphs.(r)
let region_of t node = t.part.Partition.region_of.(node)

let run ?(shards = 1) ?epoch ~until t =
  (* One promise per directed gateway channel, written by its producing
     shard's owner, read by the consumer; fresh per run. *)
  let promises =
    Array.init (Array.length t.channels) (fun _ -> Atomic.make 0)
  in
  let endpoints =
    Array.map
      (fun sh ->
        let r = sh.region in
        let dirs = t.out_dirs.(r) in
        {
          Parallel.Conservative.drain = (fun () -> drain_region t r);
          inbox_empty =
            (fun () ->
              List.for_all
                (fun d -> Parallel.Spsc.is_empty t.channels.(d))
                t.in_dirs.(r));
          safe_in =
            (fun () ->
              List.fold_left
                (fun acc d -> min acc (Atomic.get promises.(d)))
                max_int t.in_dirs.(r));
          advance =
            (fun ~safe_in ~cap ->
              Sim.Shard_engine.advance sh.clock ~safe_in ~cap);
          publish =
            (fun ~safe_in ->
              let moved = ref 0 in
              Array.iteri
                (fun e d ->
                  let p =
                    Sim.Shard_engine.promise_edge sh.clock ~edge:e ~safe_in
                  in
                  if p > Atomic.get promises.(d) then begin
                    Atomic.set promises.(d) p;
                    incr moved
                  end)
                dirs;
              !moved);
          reached = (fun ~cap -> Sim.Shard_engine.reached sh.clock ~cap);
          at_end =
            (fun ~safe_in ->
              Sim.Shard_engine.finished sh.clock ~safe_in ~until);
          on_retire =
            (fun () ->
              Array.iter (fun d -> Atomic.set promises.(d) max_int) dirs);
          work = (fun () -> Sim.Engine.executed sh.engine);
        })
      t.members
  in
  let wall0 = Unix.gettimeofday () in
  let cpu0 = Sys.time () in
  let c = Parallel.Conservative.run ~shards ?epoch ~until endpoints in
  let wall = Unix.gettimeofday () -. wall0 in
  let cpu = Sys.time () -. cpu0 in
  {
    shards = c.Parallel.Conservative.shards;
    regions = Array.length t.members;
    rounds = c.Parallel.Conservative.rounds;
    null_messages = c.Parallel.Conservative.null_messages;
    cross_frames = Array.fold_left ( + ) 0 t.m_seq;
    epochs = c.Parallel.Conservative.epochs;
    migrations = c.Parallel.Conservative.migrations;
    wall_clock_s = wall;
    cpu_time_s = cpu;
    per_region =
      Array.map
        (fun (s : Parallel.Conservative.shard_load) ->
          {
            rounds = s.Parallel.Conservative.rounds;
            advances = s.Parallel.Conservative.advances;
            null_messages = s.Parallel.Conservative.null_moves;
            events = s.Parallel.Conservative.events;
          })
        c.Parallel.Conservative.per_shard;
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
