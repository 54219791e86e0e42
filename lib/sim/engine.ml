type t = {
  mutable clock : Time.t;
  mutable next_seq : int;
  mutable executing_seq : int;
      (* with [clock], the key of the event now running; between runs,
         [next_seq] as the last run left it *)
  mutable executed : int;
  queue : (unit -> unit) Heap.t;
  cancelled : unit Heap.t;
      (* keys of queued events that must not run; a key whose event ran
         or was never scheduled is discarded once a later key pops *)
}

let create () =
  {
    clock = Time.zero;
    next_seq = 0;
    executing_seq = 0;
    executed = 0;
    queue = Heap.create ~dummy:ignore;
    cancelled = Heap.create ~dummy:();
  }

let now t = t.clock
let executed t = t.executed
let executing_seq t = t.executing_seq

let passed t ~time ~seq =
  time < t.clock || (time = t.clock && seq < t.executing_seq)

let schedule_at t ~time f =
  if time < t.clock then invalid_arg "Engine.schedule_at: time in the past";
  Heap.push t.queue ~time ~seq:t.next_seq f;
  t.next_seq <- t.next_seq + 1

let schedule t ~delay f =
  if delay < 0 then invalid_arg "Engine.schedule: negative delay";
  schedule_at t ~time:(t.clock + delay) f

(* Reserve the sequence number an event scheduled right now would get,
   without pushing anything into the heap: a lazy event scheduled later
   at this key with [schedule_keyed] runs exactly where it would have
   had it been scheduled now. *)
let alloc_seq t =
  let s = t.next_seq in
  t.next_seq <- t.next_seq + 1;
  s

let schedule_keyed t ~time ~seq f =
  if time < t.clock then invalid_arg "Engine.schedule_keyed: time in the past";
  if seq < 0 then invalid_arg "Engine.schedule_keyed: negative seq";
  Heap.push t.queue ~time ~seq f

(* Locally scheduled events take sequence numbers 0, 1, 2, ...; events
   merged in from another shard carry keys at or above this base, so at
   equal time every local event of a tick sorts before foreign arrivals
   and foreign arrivals sort by their own deterministic keys. *)
let foreign_seq_base = 1 lsl 60

let schedule_foreign t ~time ~seq f =
  if time < t.clock then invalid_arg "Engine.schedule_foreign: time in the past";
  if seq < foreign_seq_base then
    invalid_arg "Engine.schedule_foreign: seq below foreign_seq_base";
  Heap.push t.queue ~time ~seq f

(* A key that has passed ran already (or was never scheduled): nothing
   to skip, and recording it would only leave garbage in [cancelled]. *)
let cancel t ~time ~seq =
  if not (passed t ~time ~seq) then Heap.push t.cancelled ~time ~seq ()

(* Whether the popped key [(time, seq)] was cancelled, consuming its
   mark. Marks below it are stale — their events ran, or were reserved
   and never scheduled — and are dropped on the way. *)
let rec is_cancelled c ~time ~seq =
  (not (Heap.is_empty c))
  &&
  let ct = Heap.min_time c and cs = Heap.min_seq c in
  if ct < time || (ct = time && cs < seq) then begin
    Heap.pop_value c;
    is_cancelled c ~time ~seq
  end
  else if ct = time && cs = seq then begin
    Heap.pop_value c;
    true
  end
  else false

(* The loop allocates nothing per event: the heap hands back keys
   unboxed and the queued closure itself, and an absent [until] is a
   horizon no event reaches.
   A foreign event publishes [next_seq] as its seq: every local key
   reserved before it sorts before it, and none reserved while it runs
   does, exactly as if those had been pushed and popped after it. *)
let run ?until ?(max_events = max_int) t =
  let horizon = match until with Some u -> u | None -> max_int in
  let q = t.queue in
  let executed = ref 0 in
  while
    !executed < max_events && (not (Heap.is_empty q)) && Heap.min_time q <= horizon
  do
    let time = Heap.min_time q and seq = Heap.min_seq q in
    t.clock <- time;
    t.executing_seq <- (if seq >= foreign_seq_base then t.next_seq else seq);
    let action = Heap.pop_value q in
    if not (is_cancelled t.cancelled ~time ~seq) then begin
      action ();
      incr executed;
      t.executed <- t.executed + 1
    end
  done;
  (* every key reserved so far has run; one stopped by [max_events] keeps
     the last event's key *)
  if !executed < max_events then t.executing_seq <- t.next_seq;
  match until with
  | Some u when t.clock < u -> t.clock <- u
  | Some _ | None -> ()

let pending t = Heap.size t.queue
let next_time t = if Heap.is_empty t.queue then None else Some (Heap.min_time t.queue)
