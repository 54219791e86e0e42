module G = Topo.Graph

type send_result =
  | Started
  | Started_preempting of Frame.t
  | Queued
  | Dropped_blocked
  | Dropped_overflow
  | Dropped_no_link

type handler =
  t -> in_port:G.port -> frame:Frame.t -> head:Sim.Time.t -> tail:Sim.Time.t -> unit

(* A transmission's completion is lazy. Its engine key
   [(finish, done_seq)] is reserved when the transmission starts — the
   very key an eagerly scheduled completion event would take — but the
   event is only scheduled once a frame waits behind the port, because
   with nothing queued all a completion does is free the port. The port
   is busy for exactly as long as that key has not passed the key now
   executing ({!busy}), so every reader sees what it would have seen had
   the completion run. The delivery is posted at once, at the key
   [(head, delivery_seq)], which a preemption or a purge cancels by. Both
   events' payload is the port's [op_id]. The record is all a delivery
   needs, so it is the only thing a frame allocates on the wire. *)
and transmission = {
  tx_frame : Frame.t;
  delivered_frame : Frame.t;  (* may be a corrupted copy of tx_frame *)
  finish : Sim.Time.t;
  done_seq : int;
  head : Sim.Time.t;
  delivery_seq : int;
  mutable completion_scheduled : bool;  (* false until a frame queues *)
  tx_link : G.link;  (* the tail arrives [propagation] after [finish] *)
}

and outport = {
  op_id : int;  (* its index in [t.ports] *)
  op_node : G.node_id;
  op_port : G.port;
  mutable current : transmission;  (** [no_tx] once it is known to be over *)
  (* The transmissions whose delivery is queued, in the order they
     started: a ring of [wire_len] from [wire_first], its capacity a
     power of two, vacant cells [no_tx]. *)
  mutable wire : transmission array;
  mutable wire_first : int;
  mutable wire_len : int;
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
  mutable delivery : Sim.Engine.kind;
  mutable completion : Sim.Engine.kind;
  mutable ports : outport array;  (* by [op_id]; [vacant_port] past [nports] *)
  mutable nports : int;
  (* Per-frame lookups go through node-indexed arrays (outports: a
     port-indexed row per node), grown on demand, so a send or a delivery
     finds its port or handler without allocating. *)
  mutable handlers : handler option array;
  mutable outports : outport option array array;
  mutable ber : float option array;  (** link_id -> bit error rate *)
  mutable sf_links : bool array;
      (** link_id -> operated store-and-forward: the head of a frame leaves
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
  retiring : outport Sim.Heap.t;
      (** ports whose live transmission finishes no earlier than its
          delivery, keyed by its completion key, so {!retire_passed}
          finds the ones that are over in key order *)
  metrics : Telemetry.Registry.t;
  events : Telemetry.Events.t;
  flight : Telemetry.Flight.t;
  agg : agg;
  (* packet accounting (see {!conservation}); plain ints, no allocation *)
  mutable originated : int;
  mutable delivered : int;
  mutable handed_off : int;
  fates : (Telemetry.Flight.fate, int) Hashtbl.t;  (** count of each fate seen *)
}

module C = Telemetry.Registry.Counter
module Flight = Telemetry.Flight

(* the [current] of a port that is not transmitting: its key has always
   passed *)
let no_tx =
  {
    tx_frame = Frame.vacant;
    delivered_frame = Frame.vacant;
    finish = min_int;
    done_seq = 0;
    head = min_int;
    delivery_seq = 0;
    completion_scheduled = false;
    tx_link =
      { G.link_id = -1; a = -1; a_port = -1; b = -1; b_port = -1; props = G.default_props };
  }

let make_outport ~id ~node ~port ~buffer_bytes ~start =
  {
    op_id = id;
    op_node = node;
    op_port = port;
    current = no_tx;
    wire = [||];
    wire_first = 0;
    wire_len = 0;
    queue = Sim.Heap.create ~dummy:Frame.vacant;
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
let vacant_port = make_outport ~id:(-1) ~node:(-1) ~port:(-1) ~buffer_bytes:0 ~start:0

(* the output-queue bound a port starts with *)
let default_buffer_bytes = 256 * 1024

let create_world engine graph =
  let metrics = Telemetry.Registry.create () in
  let cnt ?help name = Telemetry.Registry.counter metrics ?help ("netsim_" ^ name) in
  {
    engine;
    graph;
    delivery = Sim.Engine.closure_kind;
    completion = Sim.Engine.closure_kind;
    ports = [||];
    nports = 0;
    handlers = [||];
    outports = [||];
    ber = [||];
    sf_links = [||];
    rng = Sim.Rng.create 0xC0FFEEL;
    corruptor = None;
    handler_errors = Hashtbl.create 8;
    taps = [||];
    retiring = Sim.Heap.create ~dummy:vacant_port;
    metrics;
    events = Telemetry.Events.create ();
    flight = Flight.create ();
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
    originated = 0;
    delivered = 0;
    handed_off = 0;
    fates = Hashtbl.create 12;
  }

let engine t = t.engine
let graph t = t.graph
let now t = Sim.Engine.now t.engine
let metrics t = t.metrics
let events t = t.events
let flight t = t.flight

let originate t =
  t.originated <- t.originated + 1;
  Flight.start t.flight ~now:(now t)

let originate_copies t n = t.originated <- t.originated + n

let complete t frame =
  t.delivered <- t.delivered + 1;
  match frame.Frame.flight with
  | Some ctx -> Flight.complete ctx ~now:(now t)
  | None -> ()

let hand_off t frame =
  t.handed_off <- t.handed_off + 1;
  Option.map Flight.export frame.Frame.flight

(* no allocation once a fate has been seen: [replace] then updates its
   binding in place *)
let fate_count t fate =
  match Hashtbl.find t.fates fate with n -> n | exception Not_found -> 0

let count_fate t fate = Hashtbl.replace t.fates fate (fate_count t fate + 1)

(* A frame with [meta] is a control message, not a packet anyone
   originated: losing it is no packet's fate. *)
let lose t ~node ~in_port frame fate =
  if Option.is_none frame.Frame.meta then begin
    count_fate t fate;
    match frame.Frame.flight with
    | Some ctx -> Flight.drop ctx ~node ~in_port ~now:(now t) fate
    | None -> ()
  end

let conservation t =
  let lost = Hashtbl.fold (fun _ n acc -> acc + n) t.fates 0 in
  t.originated - t.delivered - t.handed_off - lost

(* [tbl] with room for index [i] (a fresh, larger copy when it is too
   short); new slots hold [empty] *)
let room ~empty tbl i =
  if i < 0 then invalid_arg "World: negative node, port or link id";
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
      make_outport ~id:t.nports ~node ~port ~buffer_bytes:default_buffer_bytes
        ~start:(now t)
    in
    t.ports <- room ~empty:vacant_port t.ports t.nports;
    t.ports.(t.nports) <- op;
    t.nports <- t.nports + 1;
    let row = room ~empty:None row port in
    row.(port) <- Some op;
    t.outports <- room ~empty:[||] t.outports node;
    t.outports.(node) <- row;
    op

let set_handler t node h =
  t.handlers <- room ~empty:None t.handlers node;
  t.handlers.(node) <- Some h

let set_departure_tap t ~node f =
  t.taps <- room ~empty:None t.taps node;
  t.taps.(node) <- Some f

let fresh_frame _t ?(priority = Token.Priority.normal) ?(drop_if_blocked = false)
    ?meta ?flight payload =
  { Frame.payload; off = 0; len = Bytes.length payload; priority; drop_if_blocked; meta;
    flight; aborted = false }

let import_frame t ~priority ~drop_if_blocked ~carried ~aborted ~off ~len payload =
  t.originated <- t.originated + 1;
  let flight = match carried with Some c -> Flight.import t.flight c | None -> None in
  { Frame.payload; off; len; priority; drop_if_blocked; meta = None; flight; aborted }

let set_buffer_bytes t ~node ~port n = (outport t node port).buffer_bytes <- n

let set_store_and_forward t ~link_id =
  t.sf_links <- room ~empty:false t.sf_links link_id;
  t.sf_links.(link_id) <- true

let store_and_forward t ~link_id =
  link_id >= 0 && link_id < Array.length t.sf_links && t.sf_links.(link_id)

let set_bit_error_rate t ~link_id p =
  t.ber <- room ~empty:None t.ber link_id;
  t.ber.(link_id) <- Some p

let set_corruptor t f = t.corruptor <- Some f
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
    | Some f -> f ~link (Frame.contents frame)
    | None -> (
      match find t.ber link.G.link_id with
      | None -> None
      | Some p ->
        let bits = Frame.bits frame in
        let p_frame = 1.0 -. ((1.0 -. p) ** float_of_int bits) in
        if Sim.Rng.float t.rng 1.0 >= p_frame then None
        else begin
          let payload = Bytes.sub frame.Frame.payload frame.Frame.off frame.Frame.len in
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
    { frame with Frame.payload; off = 0; len = Bytes.length payload; aborted = false }

(* A raising node handler must not take the whole simulation down: the
   event loop survives, the fault is charged to the receiving node. *)
let deliver_direct t ~node ~in_port ~frame ~head ~tail =
  match find t.handlers node with
  | Some h -> (
    try h t ~in_port ~frame ~head ~tail
    with _ ->
      C.incr t.agg.agg_handler_errors;
      let n = Option.value ~default:0 (Hashtbl.find_opt t.handler_errors node) in
      Hashtbl.replace t.handler_errors node (n + 1);
      lose t ~node ~in_port frame Handler_error)
  | None ->
    C.incr t.agg.agg_undelivered;
    lose t ~node ~in_port frame No_handler

(* The far end of [link] from [node], read off the link's fields ([G.peer]
   would box a pair). *)
let peer_node link node = if node = link.G.a then link.G.b else link.G.a

let deliver t ~link ~from_node ~frame ~head ~tail =
  if from_node = link.G.a then
    deliver_direct t ~node:link.G.b ~in_port:link.G.b_port ~frame ~head ~tail
  else if from_node = link.G.b then
    deliver_direct t ~node:link.G.a ~in_port:link.G.a_port ~frame ~head ~tail
  else invalid_arg "World.deliver: node is not on the link"

let wire_push op tx =
  let cap = Array.length op.wire in
  if op.wire_len = cap then begin
    let fresh = Array.make (max 4 (2 * cap)) no_tx in
    for i = 0 to op.wire_len - 1 do
      fresh.(i) <- op.wire.((op.wire_first + i) land (cap - 1))
    done;
    op.wire <- fresh;
    op.wire_first <- 0
  end;
  op.wire.((op.wire_first + op.wire_len) land (Array.length op.wire - 1)) <- tx;
  op.wire_len <- op.wire_len + 1

(* Take the transmission whose delivery seq is [seq] off [op]'s wire: its
   delivery runs now, or never. It is the oldest unless deliveries come
   out of start order (a preemption's victim, or a port whose link was
   replaced mid-flight), and the cells on its shorter side close the
   gap. *)
let wire_take op ~seq =
  let w = op.wire and first = op.wire_first and n = op.wire_len in
  let mask = Array.length w - 1 in
  let k = ref 0 in
  while w.((first + !k) land mask).delivery_seq <> seq do
    incr k
  done;
  let tx = w.((first + !k) land mask) in
  if 2 * !k < n then begin
    for i = !k downto 1 do
      w.((first + i) land mask) <- w.((first + i - 1) land mask)
    done;
    w.(first) <- no_tx;
    op.wire_first <- (first + 1) land mask
  end
  else begin
    for i = !k to n - 2 do
      w.((first + i) land mask) <- w.((first + i + 1) land mask)
    done;
    w.((first + n - 1) land mask) <- no_tx
  end;
  op.wire_len <- n - 1;
  tx

(* The delivery event: hand the transmission now due on port [id]'s wire
   to the far end. *)
let deliver_next t id =
  let op = t.ports.(id) in
  let tx = wire_take op ~seq:(Sim.Engine.executing_seq t.engine) in
  retire t op;
  let link = tx.tx_link in
  deliver t ~link ~from_node:op.op_node ~frame:tx.delivered_frame ~head:tx.head
    ~tail:(tx.finish + link.G.props.G.propagation)

(* Abort [tx], [op]'s busy transmission, and mark its frame a runt. Its
   fate is [fate] only if its delivery had not run yet (it is cancelled
   then); after that the receiver accounts for the packet. *)
let abort t op tx fate =
  if not (Sim.Engine.passed t.engine ~time:tx.head ~seq:tx.delivery_seq) then begin
    Sim.Engine.cancel t.engine ~time:tx.head ~seq:tx.delivery_seq;
    ignore (wire_take op ~seq:tx.delivery_seq : transmission);
    lose t ~node:op.op_node ~in_port:(-1) tx.tx_frame fate
  end;
  if tx.completion_scheduled then
    Sim.Engine.cancel t.engine ~time:tx.finish ~seq:tx.done_seq;
  tx.tx_frame.Frame.aborted <- true;
  tx.delivered_frame.Frame.aborted <- true

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
    if store_and_forward t ~link_id:link.G.link_id then tail
    else start + link.G.props.G.propagation
  in
  let delivered = maybe_corrupt t op link frame in
  let peer = peer_node link op.op_node in
  (match find t.taps peer with Some f -> f ~head | None -> ());
  let delivery_seq = Sim.Engine.alloc_seq t.engine in
  let done_seq = Sim.Engine.alloc_seq t.engine in
  let tx =
    { tx_frame = frame; delivered_frame = delivered; finish; done_seq; head;
      delivery_seq; completion_scheduled = false; tx_link = link }
  in
  wire_push op tx;
  Sim.Engine.post_keyed t.engine ~time:head ~seq:delivery_seq ~kind:t.delivery op.op_id;
  retire_passed t;
  op.current <- tx;
  (* a delivery at or before the completion key cannot retire it *)
  if finish >= head then Sim.Heap.push t.retiring ~time:finish ~seq:done_seq op;
  (* frames still queued (behind a preemption, or behind the frame a
     completion just dequeued) need the completion to start them *)
  if not (Sim.Heap.is_empty op.queue) then schedule_completion t op tx;
  op.sent_frames <- op.sent_frames + 1;
  op.sent_bytes <- op.sent_bytes + frame.Frame.len;
  C.incr t.agg.agg_sent_frames;
  C.add t.agg.agg_sent_bytes (frame.Frame.len);
  op.busy_time <- op.busy_time + tx_time

(* Schedule [tx]'s completion at the key it reserved. *)
and schedule_completion t op tx =
  tx.completion_scheduled <- true;
  Sim.Engine.post_keyed t.engine ~time:tx.finish ~seq:tx.done_seq ~kind:t.completion
    op.op_id

and complete_tx t op =
  op.current <- no_tx;
  if not (Sim.Heap.is_empty op.queue) then begin
    let frame = Sim.Heap.pop_value op.queue in
    op.queued_bytes <- op.queued_bytes - frame.Frame.len;
    Sim.Stats.Timeweighted.set op.qtrack ~now:(now t)
      (float_of_int (Sim.Heap.size op.queue));
    match G.link_at t.graph op.op_node op.op_port with
    | link -> start_transmission t op link frame
    | exception Not_found ->
      op.dropped_no_link <- op.dropped_no_link + 1;
      C.incr t.agg.agg_dropped_no_link;
      lose t ~node:op.op_node ~in_port:(-1) frame Send_drop;
      complete_tx t op
  end

(* Queue [frame] behind [tx], the port's busy transmission. *)
let enqueue t op tx frame =
  if op.queued_bytes + frame.Frame.len > op.buffer_bytes then begin
    op.dropped_overflow <- op.dropped_overflow + 1;
    C.incr t.agg.agg_dropped_overflow;
    Dropped_overflow
  end
  else begin
    (* Min-heap: smaller key pops first, so invert the priority rank. *)
    let key = 15 - Token.Priority.rank frame.Frame.priority in
    Sim.Heap.push op.queue ~time:key ~seq:op.qseq frame;
    op.qseq <- op.qseq + 1;
    op.queued_bytes <- op.queued_bytes + frame.Frame.len;
    Sim.Stats.Timeweighted.set op.qtrack ~now:(now t)
      (float_of_int (Sim.Heap.size op.queue));
    if not tx.completion_scheduled then schedule_completion t op tx;
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
        (* The victim's head may already be arriving downstream: it is
           marked a runt so receivers that act at tail time discard it. *)
        abort t op tx Preempted;
        op.preempted <- op.preempted + 1;
        C.incr t.agg.agg_preempted;
        op.current <- no_tx;
        start_transmission t op link frame;
        Started_preempting tx.tx_frame
      end
      else if frame.Frame.drop_if_blocked then begin
        op.dropped_blocked <- op.dropped_blocked + 1;
        C.incr t.agg.agg_dropped_blocked;
        Dropped_blocked
      end
      else enqueue t op tx frame

let create engine graph =
  let t = create_world engine graph in
  t.delivery <- Sim.Engine.register engine (deliver_next t);
  t.completion <- Sim.Engine.register engine (fun id -> complete_tx t t.ports.(id));
  t

let delivery_kind t = t.delivery
let completion_kind t = t.completion

let queue_length t ~node ~port = Sim.Heap.size (outport t node port).queue
let queued_bytes t ~node ~port = (outport t node port).queued_bytes
let port_busy t ~node ~port = busy t (outport t node port).current

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
   frame on all of [node]'s outports, in port order (the order purged
   frames' flights are committed in). Returns the number of frames lost,
   aborted transmissions included whether or not their delivery ran. *)
let purge_node t ~node =
  let row =
    if node >= 0 && node < Array.length t.outports then t.outports.(node) else [||]
  in
  Array.fold_left
    (fun total -> function
      | None -> total
      | Some op ->
        let tx = op.current in
        (* a transmission whose completion key has passed is over: its
           frame is on the wire, not in the port *)
        let in_flight = busy t tx in
        if in_flight then abort t op tx Purged;
        op.current <- no_tx;
        let dropped = Bool.to_int in_flight + Sim.Heap.size op.queue in
        while not (Sim.Heap.is_empty op.queue) do
          let frame = Sim.Heap.pop_value op.queue in
          op.queued_bytes <- op.queued_bytes - frame.Frame.len;
          lose t ~node ~in_port:(-1) frame Purged
        done;
        Sim.Stats.Timeweighted.set op.qtrack ~now:(now t) 0.0;
        op.purged <- op.purged + dropped;
        C.add t.agg.agg_purged dropped;
        total + dropped)
    0 row

let handler_errors t ~node =
  Option.value ~default:0 (Hashtbl.find_opt t.handler_errors node)

let total_handler_errors t = C.value t.agg.agg_handler_errors

let utilization t ~node ~port =
  let op = outport t node port in
  let elapsed = now t in
  if elapsed = 0 then 0.0
  else float_of_int op.busy_time /. float_of_int elapsed

let undelivered t = C.value t.agg.agg_undelivered
