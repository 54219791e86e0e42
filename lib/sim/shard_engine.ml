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
     edge's egress proxy, in ascending order: [count] heads from
     [first] in a ring whose length is a power of two *)
  mutable heads : Time.t array;
  mutable first : int;
  mutable count : int;
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
  { lookahead; heads = Array.make 16 0; first = 0; count = 0; promised = 0 }

let create_edges ~lookaheads engine =
  (* an empty array is legal: a shard with no egress edges (a sink
     region) promises nothing *)
  { engine; edges = Array.map make_edge lookaheads; ran_until = -1 }

let edge_count t = Array.length t.edges
let edge_lookahead t ~edge = t.edges.(edge).lookahead

let[@inline] nth e i = e.heads.((e.first + i) land (Array.length e.heads - 1))

let drop_first e =
  e.first <- (e.first + 1) land (Array.length e.heads - 1);
  e.count <- e.count - 1

(* Heads toward one proxy leave through one port, so they are noted in
   non-decreasing order and the insertion below stops at once; only a
   preemption on a store-and-forward link (a short frame finishing
   before the long one it cut off) inserts behind the last head. *)
let note_outbound t ~edge ~head =
  let e = t.edges.(edge) in
  let cap = Array.length e.heads in
  if e.count = cap then begin
    e.heads <- Array.init (2 * cap) (fun i -> if i < cap then nth e i else 0);
    e.first <- 0
  end;
  let mask = Array.length e.heads - 1 in
  let i = ref e.count in
  while !i > 0 && nth e (!i - 1) > head do
    e.heads.((e.first + !i) land mask) <- nth e (!i - 1);
    decr i
  done;
  e.heads.((e.first + !i) land mask) <- head;
  e.count <- e.count + 1

(* The delivery at [head] runs at [head]: a head below it whose delivery
   had been due ran already, so one still noted belongs to a cancelled
   transmission and goes. *)
let outbound_sent t ~edge ~head =
  let e = t.edges.(edge) in
  while e.count > 0 && nth e 0 < head do
    drop_first e
  done;
  if e.count = 0 || nth e 0 <> head then
    invalid_arg "Shard_engine.outbound_sent: head was never noted";
  drop_first e

(* Minimum still-pending head of one edge. Heads at or below the engine
   clock whose delivery never fired belong to transmissions cancelled
   by preemption or a node crash, and must not pin the promise in the
   past: they are discarded here. *)
let min_pending t e =
  let now = Engine.now t.engine in
  while e.count > 0 && nth e 0 <= now do
    drop_first e
  done;
  if e.count = 0 then max_int else nth e 0

let earliest_cause t ~safe_in = min (Engine.next_time t.engine) safe_in

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
    Engine.run_until t.engine target;
    t.ran_until <- target;
    true
  end

let reached t ~cap = t.ran_until >= cap
let finished t ~safe_in ~until = t.ran_until >= until && safe_in > until
