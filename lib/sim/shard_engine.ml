(* A conservative (Chandy–Misra–Bryant) shard clock around {!Engine}.

   The shard repeatedly advances its engine up to (but excluding) the
   minimum time promised by its in-neighbors, then publishes its
   promises: per egress edge, a lower bound on the timestamp of any
   message it could still emit over that edge. Two sources bound each
   edge's promise:

     - transmissions already scheduled toward that edge's egress proxy,
       whose delivery (head-arrival) times are tracked per edge as a
       multiset of pending heads;
     - anything a future event might start, which cannot reach the
       neighbor before (earliest future event) + that edge's lookahead —
       the physical lower bound on causality across that gateway link
       (propagation, plus the minimum serialization time when the link
       is operated store-and-forward).

   All bounds only ever move forward, so promises are monotone, and
   because every lookahead is strictly positive the shard holding the
   globally minimal next event always ends up with safe-time strictly
   above its own clock: the protocol cannot deadlock. *)

type edge = {
  lookahead : Time.t;
  (* multiset of delivery heads of in-flight transmissions toward this
     edge's egress proxy: a heap of heads plus live-counts for lazy
     deletion *)
  pending : unit Heap.t;
  counts : (Time.t, int) Hashtbl.t;
  mutable pseq : int;
  mutable promised : Time.t;
}

type t = {
  engine : Engine.t;
  edges : edge array;
  mutable ran_until : Time.t;  (** -1 before the first advance *)
}

let make_edge lookahead =
  if lookahead <= 0 then
    invalid_arg "Shard_engine: lookahead must be positive";
  {
    lookahead;
    pending = Heap.create ~dummy:();
    counts = Hashtbl.create 32;
    pseq = 0;
    promised = 0;
  }

let create_edges ~lookaheads engine =
  (* an empty array is legal: a shard with no egress edges (a sink
     region) promises nothing *)
  { engine; edges = Array.map make_edge lookaheads; ran_until = -1 }

let edge_count t = Array.length t.edges
let edge_lookahead t ~edge = t.edges.(edge).lookahead

let note_outbound t ~edge ~head =
  let e = t.edges.(edge) in
  let n = Option.value ~default:0 (Hashtbl.find_opt e.counts head) in
  Hashtbl.replace e.counts head (n + 1);
  if n = 0 then begin
    Heap.push e.pending ~time:head ~seq:e.pseq ();
    e.pseq <- e.pseq + 1
  end

let outbound_sent t ~edge ~head =
  let e = t.edges.(edge) in
  match Hashtbl.find_opt e.counts head with
  | Some n when n > 1 -> Hashtbl.replace e.counts head (n - 1)
  | Some _ -> Hashtbl.remove e.counts head
  | None -> invalid_arg "Shard_engine.outbound_sent: head was never noted"

(* Minimum still-live pending head of one edge. Entries whose count
   dropped to zero are lazily discarded, as are heads at or below the
   engine clock whose delivery never fired — those belong to
   transmissions cancelled by preemption or a node crash, and must not
   pin the promise in the past. *)
let rec min_pending t e =
  if Heap.is_empty e.pending then max_int
  else begin
    let head = Heap.min_time e.pending in
    let live = Hashtbl.mem e.counts head in
    if live && head > Engine.now t.engine then head
    else begin
      Heap.pop_value e.pending;
      if live then Hashtbl.remove e.counts head;
      min_pending t e
    end
  end

let earliest_cause t ~safe_in =
  let next_local =
    match Engine.next_time t.engine with Some time -> time | None -> max_int
  in
  min next_local safe_in

let promise_one t e ~cause =
  let via_lookahead =
    if cause >= max_int - e.lookahead then max_int else cause + e.lookahead
  in
  let p = min (min_pending t e) via_lookahead in
  (* monotone by construction; the max is a guard, not a correction *)
  e.promised <- max e.promised p;
  e.promised

let promise_edge t ~edge ~safe_in =
  promise_one t t.edges.(edge) ~cause:(earliest_cause t ~safe_in)

let advance t ~safe_in ~cap =
  let target = min (safe_in - 1) cap in
  if target <= t.ran_until then false
  else begin
    Engine.run ~until:target t.engine;
    t.ran_until <- target;
    true
  end

let reached t ~cap = t.ran_until >= cap
let finished t ~safe_in ~until = t.ran_until >= until && safe_in > until
