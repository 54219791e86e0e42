module G = Topo.Graph

(* The inbox queue. Keys (time, reserved engine seq) arrive almost
   sorted: seqs are allocated monotonically, so pushes for one instant
   are already in order, and the only out-of-order push is the
   occasional short key — e.g. a delivery over a short link landing
   below an earlier-pushed one over a long link, or a port completion
   pushed at the key it reserved when its transmission began. A sorted
   array-deque makes the common push an O(1) append and every peek/pop
   O(1), which is measurably cheaper than a binary heap at the few
   dozen entries a node's inbox holds on the wire-speed path. *)
module Ibq = struct
  type 'a t = {
    dummy : 'a;
    mutable times : int array;
    mutable seqs : int array;
    mutable vals : 'a array;
    mutable head : int;  (* index of the minimum entry *)
    mutable len : int;
  }

  let create ~dummy =
    {
      dummy;
      times = Array.make 16 0;
      seqs = Array.make 16 0;
      vals = Array.make 16 dummy;
      head = 0;
      len = 0;
    }

  let is_empty q = q.len = 0

  (* the front's key and value, read without allocating; the queue must
     be non-empty *)
  let min_time q = q.times.(q.head)
  let min_seq q = q.seqs.(q.head)

  let pop_value q =
    let i = q.head in
    let v = q.vals.(i) in
    q.vals.(i) <- q.dummy;
    q.head <- i + 1;
    q.len <- q.len - 1;
    if q.len = 0 then q.head <- 0;
    v

  (* the tail hit the end of the arrays: slide the live span back to the
     front, or double if it is genuinely full *)
  let make_room q =
    let cap = Array.length q.times in
    if q.len <= cap / 2 then begin
      Array.blit q.times q.head q.times 0 q.len;
      Array.blit q.seqs q.head q.seqs 0 q.len;
      Array.blit q.vals q.head q.vals 0 q.len;
      Array.fill q.vals q.len (cap - q.len) q.dummy;
      q.head <- 0
    end
    else begin
      let times = Array.make (cap * 2) 0 in
      let seqs = Array.make (cap * 2) 0 in
      let vals = Array.make (cap * 2) q.dummy in
      Array.blit q.times q.head times 0 q.len;
      Array.blit q.seqs q.head seqs 0 q.len;
      Array.blit q.vals q.head vals 0 q.len;
      q.times <- times;
      q.seqs <- seqs;
      q.vals <- vals;
      q.head <- 0
    end

  let push q ~time ~seq v =
    if q.head + q.len = Array.length q.times then make_room q;
    let tail = q.head + q.len in
    (* near-sorted input: scan back from the tail for the slot *)
    let i = ref tail in
    while
      !i > q.head
      && (q.times.(!i - 1) > time
         || (q.times.(!i - 1) = time && q.seqs.(!i - 1) > seq))
    do
      decr i
    done;
    let p = !i in
    if p < tail then begin
      Array.blit q.times p q.times (p + 1) (tail - p);
      Array.blit q.seqs p q.seqs (p + 1) (tail - p);
      Array.blit q.vals p q.vals (p + 1) (tail - p)
    end;
    q.times.(p) <- time;
    q.seqs.(p) <- seq;
    q.vals.(p) <- v;
    q.len <- q.len + 1
end

type send_result =
  | Started
  | Started_preempting of Frame.t
  | Queued
  | Dropped_blocked
  | Dropped_overflow
  | Dropped_no_link

type handler =
  t -> in_port:G.port -> frame:Frame.t -> head:Sim.Time.t -> tail:Sim.Time.t -> unit

(* Work waiting in a node's batch queue: a link delivery, or any other
   per-node event (a router's process step, a port's transmission
   completion) routed through the same coalescing machinery via
   [defer]. [p_seq] is a real engine sequence number reserved ahead of
   time, so replaying pending entries in (time, seq) order reproduces
   exactly the execution order an individual heap event per entry would
   have had. *)
and pending = {
  p_work : pending_work;
  p_seq : int;
  mutable p_cancelled : bool;
}

and pending_work =
  | P_deliver of {
      pl_link : G.link;
      pl_op : outport;  (* the sending port *)
      pl_frame : Frame.t;
      pl_head : Sim.Time.t;
      pl_tail : Sim.Time.t;
    }
  | P_thunk of (unit -> unit)

and delivery_ref =
  | D_none  (* a completion whose reserved key was never scheduled *)
  | D_event of Sim.Engine.handle  (* unbatched: one heap event per delivery *)
  | D_batch of pending  (* batched: an entry in an inbox *)

(* A transmission's completion is lazy. Its engine key
   [(finish, done_seq)] is reserved when the transmission starts — the
   very key an eagerly scheduled completion event would take — but the
   event is only scheduled once a frame waits behind the port, because
   with nothing queued all a completion does is free the port. The port
   is busy for exactly as long as that key has not passed the key now
   executing ({!busy}), so every reader sees what it would have seen had
   the completion run. *)
and transmission = {
  tx_frame : Frame.t;
  delivered_frame : Frame.t;  (* may be a corrupted copy of tx_frame *)
  finish : Sim.Time.t;
  done_seq : int;
  delivery : delivery_ref;
  mutable completion : delivery_ref;  (* [D_none] until a frame queues *)
}

(* Per receiving node: all in-flight deliveries headed its way, keyed by
   their reserved engine keys, plus the key of the cursor event (if any)
   currently parked in the engine heap to drain them — [(max_int,
   max_int)], which sorts after every real key, when none is. *)
and inbox = {
  ib_queue : pending Ibq.t;  (* keyed (head time, reserved seq) *)
  mutable ib_armed_time : Sim.Time.t;
  mutable ib_armed_seq : int;
  mutable ib_draining : bool;
      (* while the cursor drains this inbox, new pushes must not arm
         fresh cursors (they would fire stale): the drain re-arms once,
         at the end, for whatever is left *)
}

and outport = {
  op_node : G.node_id;
  op_port : G.port;
  mutable current : transmission;  (** [no_tx] once it is known to be over *)
  queue : Frame.t Sim.Heap.t;  (** keyed by inverted priority rank, FIFO seq *)
  mutable qseq : int;
  mutable queued_bytes : int;
  mutable buffer_bytes : int;
  (* stats *)
  mutable sent_frames : int;
  mutable sent_bytes : int;
  mutable dropped_blocked : int;
  mutable dropped_overflow : int;
  mutable dropped_no_link : int;
  mutable preempted : int;
  mutable corrupted : int;
  mutable purged : int;  (** frames lost to a node crash (see [purge_node]) *)
  mutable busy_time : Sim.Time.t;
  qtrack : Sim.Stats.Timeweighted.t;
}

and agg = {
  (* world-wide totals mirrored onto the telemetry registry so one
     Telemetry.Export call snapshots the whole simulation; the per-port
     record fields below stay authoritative for port_stats *)
  agg_sent_frames : Telemetry.Registry.Counter.t;
  agg_sent_bytes : Telemetry.Registry.Counter.t;
  agg_dropped_blocked : Telemetry.Registry.Counter.t;
  agg_dropped_overflow : Telemetry.Registry.Counter.t;
  agg_dropped_no_link : Telemetry.Registry.Counter.t;
  agg_preempted : Telemetry.Registry.Counter.t;
  agg_corrupted : Telemetry.Registry.Counter.t;
  agg_purged : Telemetry.Registry.Counter.t;
  agg_undelivered : Telemetry.Registry.Counter.t;
  agg_handler_errors : Telemetry.Registry.Counter.t;
}

and t = {
  engine : Sim.Engine.t;
  graph : G.t;
  default_buffer_bytes : int;
  (* Per-frame lookups go through node-indexed arrays (outports: a
     port-indexed row per node), grown on demand, so a send or a delivery
     finds its port, inbox or handler without allocating. *)
  mutable handlers : handler option array;
  mutable outports : outport option array array;
  outport_order : (G.node_id * G.port, outport) Hashtbl.t;
      (** every outport again, keyed by (node, port): only {!purge_node}
          reads it, and its iteration order is the order purged frames'
          flights are committed in *)
  ber : (int, float) Hashtbl.t;  (** link_id -> bit error rate *)
  sf_links : (int, unit) Hashtbl.t;
      (** link_ids operated store-and-forward: the head of a frame leaves
          only after the whole frame is serialized, so head arrival is
          [finish + propagation] rather than [start + propagation] — which
          makes [propagation + min transmission time] a sound cross-link
          lookahead (trunk links between regions) *)
  rng : Sim.Rng.t;
  mutable corruptor : (link:G.link -> bytes -> bytes option) option;
      (** externally injected damage model (see [Faults]); takes precedence
          over the flat per-link BER table *)
  handler_errors : (G.node_id, int) Hashtbl.t;
  mutable taps : (head:Sim.Time.t -> unit) option array;
      (** departure taps: notified when a transmission whose delivery
          will arrive at the tapped node is scheduled (shard lookahead) *)
  batching : bool;
  mutable inboxes : inbox option array;
  pool : Wire.Pool.t option;
      (** buffer arena for the forwarding fast path; [None] keeps plain
          allocation (the same-simulation control) *)
  mutable flush_hooks : (unit -> unit) list;
      (** called after every delivery batch (batched mode) or after each
          delivery event (unbatched) — the shard layer drains its egress
          accumulators here so channel pushes amortize with batching *)
  retiring : outport Sim.Heap.t;
      (** ports whose live transmission finishes no earlier than its
          delivery, keyed by its completion key, so {!retire_passed}
          finds the ones that are over in key order *)
  mutable next_frame_id : int;
  mutable trace : Sim.Trace.t option;
  metrics : Telemetry.Registry.t;
  events : Telemetry.Events.t;
  flight : Telemetry.Flight.t;
  agg : agg;
}

module C = Telemetry.Registry.Counter

(* fills the outport queues' vacated slots; never handed out *)
let idle_frame =
  {
    Frame.id = -1;
    payload = Bytes.empty;
    priority = Token.Priority.normal;
    drop_if_blocked = false;
    born = 0;
    meta = None;
    flight = None;
    aborted = false;
  }

(* the [current] of a port that is not transmitting: its key has always
   passed *)
let no_tx =
  {
    tx_frame = idle_frame;
    delivered_frame = idle_frame;
    finish = min_int;
    done_seq = 0;
    delivery = D_none;
    completion = D_none;
  }

let make_outport ~node ~port ~buffer_bytes ~start =
  {
    op_node = node;
    op_port = port;
    current = no_tx;
    queue = Sim.Heap.create ~dummy:idle_frame;
    qseq = 0;
    queued_bytes = 0;
    buffer_bytes;
    sent_frames = 0;
    sent_bytes = 0;
    dropped_blocked = 0;
    dropped_overflow = 0;
    dropped_no_link = 0;
    preempted = 0;
    corrupted = 0;
    purged = 0;
    busy_time = 0;
    qtrack = Sim.Stats.Timeweighted.create ~start ~initial:0.0;
  }

(* fills the retire heap's vacated slots; never sends *)
let vacant_port = make_outport ~node:(-1) ~port:(-1) ~buffer_bytes:0 ~start:0

let create ?(default_buffer_bytes = 256 * 1024) ?(batching = false)
    ?(pooling = false) engine graph =
  let metrics = Telemetry.Registry.create () in
  let cnt ?help name = Telemetry.Registry.counter metrics ?help ("netsim_" ^ name) in
  {
    engine;
    graph;
    default_buffer_bytes;
    handlers = [||];
    outports = [||];
    outport_order = Hashtbl.create 256;
    ber = Hashtbl.create 8;
    sf_links = Hashtbl.create 4;
    rng = Sim.Rng.create 0xC0FFEEL;
    corruptor = None;
    handler_errors = Hashtbl.create 8;
    taps = [||];
    batching;
    inboxes = [||];
    pool = (if pooling then Some (Wire.Pool.create ()) else None);
    flush_hooks = [];
    retiring = Sim.Heap.create ~dummy:vacant_port;
    next_frame_id = 0;
    trace = None;
    metrics;
    events = Telemetry.Events.create ();
    flight = Telemetry.Flight.create ();
    agg =
      {
        agg_sent_frames = cnt "sent_frames" ~help:"frames handed to links";
        agg_sent_bytes = cnt "sent_bytes";
        agg_dropped_blocked = cnt "dropped_blocked";
        agg_dropped_overflow = cnt "dropped_overflow";
        agg_dropped_no_link = cnt "dropped_no_link";
        agg_preempted = cnt "preempted";
        agg_corrupted = cnt "corrupted";
        agg_purged = cnt "purged" ~help:"frames lost to node crashes";
        agg_undelivered = cnt "undelivered" ~help:"frames arriving at nodes with no handler";
        agg_handler_errors = cnt "handler_errors";
      };
  }

let engine t = t.engine
let graph t = t.graph
let now t = Sim.Engine.now t.engine
let set_trace t trace = t.trace <- Some trace
let metrics t = t.metrics
let events t = t.events
let flight t = t.flight
let batching t = t.batching
let pool t = t.pool

let release_payload t b =
  match t.pool with Some p -> Wire.Pool.release p b | None -> ()

let add_flush_hook t f = t.flush_hooks <- t.flush_hooks @ [ f ]
let flush t = match t.flush_hooks with [] -> () | hooks -> List.iter (fun f -> f ()) hooks

let trace t fmt =
  match t.trace with
  | Some tr -> Sim.Trace.recordf tr ~time:(now t) fmt
  | None -> Printf.ikfprintf ignore () fmt

(* [tbl] with room for index [i] (a fresh, larger copy when it is too
   short); new slots hold [empty] *)
let room ~empty tbl i =
  if i < 0 then invalid_arg "World: negative node or port";
  let n = Array.length tbl in
  if i < n then tbl
  else begin
    let fresh = Array.make (max (i + 1) (2 * n)) empty in
    Array.blit tbl 0 fresh 0 n;
    fresh
  end

let find tbl i = if i >= 0 && i < Array.length tbl then tbl.(i) else None

let busy t tx =
  not (Sim.Engine.passed t.engine ~time:tx.finish ~seq:tx.done_seq)

(* Forget a transmission that is over, so its port no longer keeps its
   frames alive (and the minor collector does not promote them). Changes
   nothing observable: a port whose transmission has passed is idle
   either way. A transmission whose delivery comes after its completion
   key is retired by the delivery; {!retire_passed} retires the rest. *)
let retire t op =
  if op.current != no_tx && not (busy t op.current) then op.current <- no_tx

(* Retire the transmissions in [t.retiring] whose completion keys have
   passed, skipping ports whose transmission was replaced since (by its
   completion, a preemption or a purge). *)
let rec retire_passed t =
  let h = t.retiring in
  if
    (not (Sim.Heap.is_empty h))
    && Sim.Engine.passed t.engine ~time:(Sim.Heap.min_time h)
         ~seq:(Sim.Heap.min_seq h)
  then begin
    let seq = Sim.Heap.min_seq h in
    let op = Sim.Heap.pop_value h in
    if op.current.done_seq = seq then op.current <- no_tx;
    retire_passed t
  end

let outport t node port =
  let row =
    if node >= 0 && node < Array.length t.outports then t.outports.(node)
    else [||]
  in
  match find row port with
  | Some op -> op
  | None ->
    let op =
      make_outport ~node ~port ~buffer_bytes:t.default_buffer_bytes
        ~start:(now t)
    in
    let row = room ~empty:None row port in
    row.(port) <- Some op;
    t.outports <- room ~empty:[||] t.outports node;
    t.outports.(node) <- row;
    Hashtbl.replace t.outport_order (node, port) op;
    op

let set_handler t node h =
  t.handlers <- room ~empty:None t.handlers node;
  t.handlers.(node) <- Some h

let set_departure_tap t ~node f =
  t.taps <- room ~empty:None t.taps node;
  t.taps.(node) <- Some f

let fresh_frame t ?(priority = Token.Priority.normal) ?(drop_if_blocked = false)
    ?meta ?flight payload =
  let id = t.next_frame_id in
  t.next_frame_id <- id + 1;
  { Frame.id; payload; priority; drop_if_blocked; born = now t; meta; flight; aborted = false }

let import_frame t ?(priority = Token.Priority.normal) ?(drop_if_blocked = false)
    ?flight ~born ~aborted payload =
  let id = t.next_frame_id in
  t.next_frame_id <- id + 1;
  { Frame.id; payload; priority; drop_if_blocked; born; meta = None; flight; aborted }

let set_buffer_bytes t ~node ~port n = (outport t node port).buffer_bytes <- n
let set_store_and_forward t ~link_id = Hashtbl.replace t.sf_links link_id ()
let store_and_forward t ~link_id = Hashtbl.mem t.sf_links link_id
let set_bit_error_rate t ~link_id p = Hashtbl.replace t.ber link_id p
let set_corruptor t f = t.corruptor <- Some f
let clear_corruptor t = t.corruptor <- None
let fail_link t link =
  G.disconnect t.graph link;
  Telemetry.Events.emit t.events ~time:(now t)
    (Telemetry.Events.Link_failed { link_id = link.G.link_id })

let restore_link t link =
  G.reconnect t.graph link;
  Telemetry.Events.emit t.events ~time:(now t)
    (Telemetry.Events.Link_restored { link_id = link.G.link_id })

let maybe_corrupt t op link frame =
  let damaged =
    match t.corruptor with
    | Some f -> f ~link frame.Frame.payload
    | None -> (
      match Hashtbl.find_opt t.ber link.G.link_id with
      | None -> None
      | Some p ->
        let bits = Frame.bits frame in
        let p_frame = 1.0 -. ((1.0 -. p) ** float_of_int bits) in
        if Sim.Rng.float t.rng 1.0 >= p_frame then None
        else begin
          let payload = Bytes.copy frame.Frame.payload in
          let i = Sim.Rng.int t.rng (max 1 (Bytes.length payload)) in
          Bytes.set payload i
            (Char.chr
               (Char.code (Bytes.get payload i) lxor (1 lsl Sim.Rng.int t.rng 8)));
          Some payload
        end)
  in
  match damaged with
  | None -> frame
  | Some payload ->
    op.corrupted <- op.corrupted + 1;
    C.incr t.agg.agg_corrupted;
    { frame with Frame.payload = payload; Frame.aborted = false }

(* A raising node handler must not take the whole simulation down: the
   event loop survives, the fault is charged to the receiving node. *)
let deliver_direct t ~node ~in_port ~frame ~head ~tail =
  match find t.handlers node with
  | Some h -> (
    try h t ~in_port ~frame ~head ~tail
    with exn ->
      C.incr t.agg.agg_handler_errors;
      let n = Option.value ~default:0 (Hashtbl.find_opt t.handler_errors node) in
      Hashtbl.replace t.handler_errors node (n + 1);
      trace t "node %d: handler raised %s on frame#%d" node
        (Printexc.to_string exn) frame.Frame.id)
  | None -> C.incr t.agg.agg_undelivered

(* The far end of [link] from [node], read off the link's fields ([G.peer]
   would box a pair). *)
let peer_node link node = if node = link.G.a then link.G.b else link.G.a

let deliver t ~link ~from_node ~frame ~head ~tail =
  if from_node = link.G.a then
    deliver_direct t ~node:link.G.b ~in_port:link.G.b_port ~frame ~head ~tail
  else if from_node = link.G.b then
    deliver_direct t ~node:link.G.a ~in_port:link.G.a_port ~frame ~head ~tail
  else invalid_arg "World.deliver: node is not on the link"

let inbox t node =
  match find t.inboxes node with
  | Some ib -> ib
  | None ->
    let ib =
      let dummy =
        { p_work = P_thunk ignore; p_seq = -1; p_cancelled = true }
      in
      { ib_queue = Ibq.create ~dummy; ib_armed_time = max_int;
        ib_armed_seq = max_int; ib_draining = false }
    in
    t.inboxes <- room ~empty:None t.inboxes node;
    t.inboxes.(node) <- Some ib;
    ib

(* Batched delivery. Every pending entry reserved a real engine sequence
   number at scheduling time, so the set of pending entries plus the
   engine heap together hold exactly the keys an unbatched run would
   have in its heap alone. One cursor event per inbox parks in the heap
   at the front entry's exact key; when it fires, it delivers its own
   entry and then keeps draining same-instant entries for as long as
   they sort strictly before the engine's next queued event — which is
   precisely the set of deliveries the unbatched engine would have
   popped consecutively. The total execution order is therefore
   identical; only the per-delivery heap traffic and closures are
   amortized away. *)
let rec drain t ib ~time:my_t ~seq:my_s =
  if ib.ib_armed_time = my_t && ib.ib_armed_seq = my_s then begin
    ib.ib_armed_time <- max_int;
    ib.ib_armed_seq <- max_int;
    ib.ib_draining <- true;
    let q = ib.ib_queue in
    let delivered = ref false in
    let continue = ref true in
    while !continue && not (Ibq.is_empty q) do
      let pt = Ibq.min_time q and ps = Ibq.min_seq q in
      let is_self = pt = my_t && ps = my_s in
      let still_next =
        pt = now t && Sim.Engine.precedes_next t.engine ~time:pt ~seq:ps
      in
      if is_self || still_next then begin
        let p = Ibq.pop_value q in
        if not p.p_cancelled then begin
          (* the entry runs at its own key, not the cursor's *)
          Sim.Engine.set_executing_seq t.engine ps;
          match p.p_work with
          | P_deliver d ->
            delivered := true;
            retire t d.pl_op;
            deliver t ~link:d.pl_link ~from_node:d.pl_op.op_node
              ~frame:d.pl_frame ~head:d.pl_head ~tail:d.pl_tail
          | P_thunk f -> f ()
        end
      end
      else continue := false
    done;
    ib.ib_draining <- false;
    if !delivered then flush t
  end;
  (* stale cursors (superseded by an earlier-keyed one) fall through to
     here and simply re-arm whatever is still pending *)
  arm t ib

and arm t ib =
  if not (ib.ib_draining || Ibq.is_empty ib.ib_queue) then begin
    let time = Ibq.min_time ib.ib_queue and seq = Ibq.min_seq ib.ib_queue in
    let at = ib.ib_armed_time in
    if time < at || (time = at && seq < ib.ib_armed_seq) then begin
      ib.ib_armed_time <- time;
      ib.ib_armed_seq <- seq;
      ignore
        (Sim.Engine.schedule_keyed t.engine ~time ~seq (fun () ->
             drain t ib ~time ~seq))
    end
  end

let cancel_delivery t = function
  | D_none -> ()
  | D_event h -> Sim.Engine.cancel t.engine h
  | D_batch p -> p.p_cancelled <- true

(* Park [work] in [node]'s inbox at the reserved key [(time, seq)]. *)
let push_keyed t ~node ~time ~seq work =
  let p = { p_work = work; p_seq = seq; p_cancelled = false } in
  let ib = inbox t node in
  Ibq.push ib.ib_queue ~time ~seq p;
  arm t ib;
  p

let push_pending t ~node ~time work =
  push_keyed t ~node ~time ~seq:(Sim.Engine.alloc_seq t.engine) work

(* Schedule [f] at [time] as an event belonging to [node]. Unbatched,
   this is an ordinary engine event. Batched, the thunk rides [node]'s
   inbox with a reserved engine key, so same-instant node events (one
   process step per frame of a delivery batch, parallel-port completions)
   drain under one cursor instead of one heap pop each — with execution
   order provably identical to the unbatched run. *)
let defer t ~node ~time f =
  if time < now t then invalid_arg "World.defer: time in the past";
  if t.batching then ignore (push_pending t ~node ~time (P_thunk f))
  else ignore (Sim.Engine.schedule_at t.engine ~time f)

(* Begin transmitting [frame] on [op], which must be idle, over [link]. *)
let rec start_transmission t op link frame =
  let start = now t in
  let rate = link.G.props.G.bandwidth_bps in
  let tx_time = Sim.Time.transmission ~bits:(Frame.bits frame) ~rate_bps:rate in
  let finish = start + tx_time in
  let tail = finish + link.G.props.G.propagation in
  (* Cut-through by default: the head races ahead while the tail is
     still serializing. A store-and-forward link holds the frame until
     fully serialized, so head and tail arrive together. *)
  let head =
    if Hashtbl.mem t.sf_links link.G.link_id then tail
    else start + link.G.props.G.propagation
  in
  let delivered = maybe_corrupt t op link frame in
  let peer = peer_node link op.op_node in
  (match find t.taps peer with Some f -> f ~head | None -> ());
  let delivery =
    if t.batching then
      D_batch
        (push_pending t ~node:peer ~time:head
           (P_deliver
              {
                pl_link = link;
                pl_op = op;
                pl_frame = delivered;
                pl_head = head;
                pl_tail = tail;
              }))
    else
      D_event
        (Sim.Engine.schedule_at t.engine ~time:head (fun () ->
             retire t op;
             deliver t ~link ~from_node:op.op_node ~frame:delivered ~head ~tail;
             flush t))
  in
  let done_seq = Sim.Engine.alloc_seq t.engine in
  let tx =
    { tx_frame = frame; delivered_frame = delivered; finish; done_seq; delivery;
      completion = D_none }
  in
  retire_passed t;
  op.current <- tx;
  (* a delivery at or before the completion key cannot retire it *)
  if finish >= head then Sim.Heap.push t.retiring ~time:finish ~seq:done_seq op;
  (* frames still queued (behind a preemption, or behind the frame a
     completion just dequeued) need the completion to start them *)
  if not (Sim.Heap.is_empty op.queue) then schedule_completion t op tx;
  op.sent_frames <- op.sent_frames + 1;
  op.sent_bytes <- op.sent_bytes + Bytes.length frame.Frame.payload;
  C.incr t.agg.agg_sent_frames;
  C.add t.agg.agg_sent_bytes (Bytes.length frame.Frame.payload);
  op.busy_time <- op.busy_time + tx_time

(* Schedule [tx]'s completion at the key it reserved. Batched, it parks
   in the sending node's inbox: an inbox is only a holding pen keyed by
   reserved engine keys, so any fixed choice preserves execution order. *)
and schedule_completion t op tx =
  tx.completion <-
    (if t.batching then
       D_batch
         (push_keyed t ~node:op.op_node ~time:tx.finish ~seq:tx.done_seq
            (P_thunk (fun () -> complete t op)))
     else
       D_event
         (Sim.Engine.schedule_keyed t.engine ~time:tx.finish ~seq:tx.done_seq
            (fun () -> complete t op)))

and complete t op =
  op.current <- no_tx;
  if not (Sim.Heap.is_empty op.queue) then begin
    let frame = Sim.Heap.pop_value op.queue in
    op.queued_bytes <- op.queued_bytes - Bytes.length frame.Frame.payload;
    Sim.Stats.Timeweighted.set op.qtrack ~now:(now t)
      (float_of_int (Sim.Heap.size op.queue));
    match G.link_at t.graph op.op_node op.op_port with
    | link -> start_transmission t op link frame
    | exception Not_found ->
      op.dropped_no_link <- op.dropped_no_link + 1;
      C.incr t.agg.agg_dropped_no_link;
      complete t op
  end

(* Queue [frame] behind [tx], the port's busy transmission. *)
let enqueue t op tx frame =
  if op.queued_bytes + Bytes.length frame.Frame.payload > op.buffer_bytes then begin
    op.dropped_overflow <- op.dropped_overflow + 1;
    C.incr t.agg.agg_dropped_overflow;
    trace t "node %d port %d: frame#%d dropped (buffer overflow)" op.op_node
      op.op_port frame.Frame.id;
    Dropped_overflow
  end
  else begin
    (* Min-heap: smaller key pops first, so invert the priority rank. *)
    let key = 15 - Token.Priority.rank frame.Frame.priority in
    Sim.Heap.push op.queue ~time:key ~seq:op.qseq frame;
    op.qseq <- op.qseq + 1;
    op.queued_bytes <- op.queued_bytes + Bytes.length frame.Frame.payload;
    Sim.Stats.Timeweighted.set op.qtrack ~now:(now t)
      (float_of_int (Sim.Heap.size op.queue));
    (match tx.completion with D_none -> schedule_completion t op tx | _ -> ());
    Queued
  end

let send t ~node ~port frame =
  let op = outport t node port in
  match G.link_at t.graph node port with
  | exception Not_found ->
    op.dropped_no_link <- op.dropped_no_link + 1;
    C.incr t.agg.agg_dropped_no_link;
    Dropped_no_link
  | link ->
    let tx = op.current in
    if not (busy t tx) then begin
      start_transmission t op link frame;
      Started
    end
    else
      let incoming_preempts =
        Token.Priority.preemptive frame.Frame.priority
        && (not (Token.Priority.preemptive tx.tx_frame.Frame.priority))
        && Token.Priority.compare frame.Frame.priority tx.tx_frame.Frame.priority > 0
      in
      if incoming_preempts then begin
        (* Abort the transmission in flight: its delivery never happens and
           the port frees immediately. The busy-time already charged is an
           acceptable over-count of a partial transmission. *)
        (* The victim's head may already be arriving downstream: mark the
           frame as a runt so receivers that act at tail time discard it. *)
        cancel_delivery t tx.delivery;
        cancel_delivery t tx.completion;
        tx.tx_frame.Frame.aborted <- true;
        tx.delivered_frame.Frame.aborted <- true;
        op.preempted <- op.preempted + 1;
        C.incr t.agg.agg_preempted;
        trace t "node %d port %d: frame#%d preempted frame#%d" node port
          frame.Frame.id tx.tx_frame.Frame.id;
        op.current <- no_tx;
        start_transmission t op link frame;
        Started_preempting tx.tx_frame
      end
      else if frame.Frame.drop_if_blocked then begin
        op.dropped_blocked <- op.dropped_blocked + 1;
        C.incr t.agg.agg_dropped_blocked;
        trace t "node %d port %d: frame#%d dropped (blocked)" node port
          frame.Frame.id;
        Dropped_blocked
      end
      else enqueue t op tx frame

let queue_length t ~node ~port = Sim.Heap.size (outport t node port).queue
let queued_bytes t ~node ~port = (outport t node port).queued_bytes
let port_busy t ~node ~port = busy t (outport t node port).current

(* Earliest instant a NEW transmission could start on the port. Sound as
   a shard-promise floor only on sealed edges: preemption aborts the
   current transmission early, and a crash purge frees the port early —
   both start a successor before [finish]. *)
let port_busy_until t ~node ~port =
  let tx = (outport t node port).current in
  if busy t tx then tx.finish else now t

type port_stats = {
  sent_frames : int;
  sent_bytes : int;
  dropped_blocked : int;
  dropped_overflow : int;
  dropped_no_link : int;
  preempted : int;
  corrupted : int;
  purged : int;
  busy_time : Sim.Time.t;
  mean_queue : float;
  max_queue : float;
}

let port_stats t ~node ~port =
  let op = outport t node port in
  {
    sent_frames = op.sent_frames;
    sent_bytes = op.sent_bytes;
    dropped_blocked = op.dropped_blocked;
    dropped_overflow = op.dropped_overflow;
    dropped_no_link = op.dropped_no_link;
    preempted = op.preempted;
    corrupted = op.corrupted;
    purged = op.purged;
    busy_time = op.busy_time;
    mean_queue = Sim.Stats.Timeweighted.mean op.qtrack ~now:(now t);
    max_queue = Sim.Stats.Timeweighted.max op.qtrack;
  }

(* Crash support: abort the in-flight transmission and drop every queued
   frame on all of [node]'s outports. Returns the number of frames lost. *)
let purge_node t ~node =
  let total = ref 0 in
  Hashtbl.iter
    (fun (n, _) op ->
      if n = node then begin
        let dropped = ref 0 in
        let mark_purged frame =
          match frame.Frame.flight with
          | Some ctx ->
            Telemetry.Flight.drop ctx ~node ~in_port:(-1) ~now:(now t)
              ~reason:"purged"
          | None -> ()
        in
        let tx = op.current in
        (* a transmission whose completion key has passed is over: its
           frame is on the wire, not in the port *)
        if busy t tx then begin
          cancel_delivery t tx.delivery;
          cancel_delivery t tx.completion;
          tx.tx_frame.Frame.aborted <- true;
          tx.delivered_frame.Frame.aborted <- true;
          mark_purged tx.tx_frame;
          incr dropped
        end;
        op.current <- no_tx;
        while not (Sim.Heap.is_empty op.queue) do
          let frame = Sim.Heap.pop_value op.queue in
          op.queued_bytes <- op.queued_bytes - Bytes.length frame.Frame.payload;
          mark_purged frame;
          incr dropped
        done;
        Sim.Stats.Timeweighted.set op.qtrack ~now:(now t) 0.0;
        op.purged <- op.purged + !dropped;
        C.add t.agg.agg_purged !dropped;
        total := !total + !dropped
      end)
    t.outport_order;
  if !total > 0 then trace t "node %d: crash purged %d frames" node !total;
  !total

let handler_errors t ~node =
  Option.value ~default:0 (Hashtbl.find_opt t.handler_errors node)

let total_handler_errors t = C.value t.agg.agg_handler_errors

let utilization t ~node ~port =
  let op = outport t node port in
  let elapsed = now t in
  if elapsed = 0 then 0.0
  else float_of_int op.busy_time /. float_of_int elapsed

let undelivered t = C.value t.agg.agg_undelivered
