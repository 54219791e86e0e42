type kind = int

type t = {
  mutable clock : Time.t;
  mutable next_seq : int;
  mutable executing_seq : int;
      (* with [clock], the key of the event now running; between runs,
         [next_seq] as the last run left it *)
  queue : unit Heap.t;  (* int entries: the event's kind and payload *)
  cancelled : unit Heap.t;
      (* keys of queued events that must not run; a key whose event ran
         or was never scheduled is discarded once a later key pops *)
  mutable handlers : (int -> unit) array;  (* by kind *)
  mutable kind_counts : int array;  (* events run, by kind *)
  closures : Slab.t;
  mutable closure_fns : (unit -> unit) array;
      (* the closure slab: the payload of a [closure_kind] event is its
         slot here; a free slot holds [ignore] *)
}

let closure_kind = 0

let register t handler =
  let kind = Array.length t.handlers in
  t.handlers <- Array.append t.handlers [| handler |];
  t.kind_counts <- Array.append t.kind_counts [| 0 |];
  kind

let release_closure t slot =
  t.closure_fns.(slot) <- ignore;
  Slab.release t.closures slot

(* The slot is free again before the closure runs, so the closure's
   captures die with it and whatever it schedules may reuse the slot. *)
let run_closure t slot =
  let f = t.closure_fns.(slot) in
  release_closure t slot;
  f ()

let create () =
  let t =
    {
      clock = Time.zero;
      next_seq = 0;
      executing_seq = 0;
      queue = Heap.create ~dummy:();
      cancelled = Heap.create ~dummy:();
      handlers = [||];
      kind_counts = [||];
      closures = Slab.create ();
      closure_fns = [||];
    }
  in
  let kind = register t (run_closure t) in
  assert (kind = closure_kind);
  t

let now t = t.clock
let executed t = Array.fold_left ( + ) 0 t.kind_counts
let executed_kind t kind = t.kind_counts.(kind)
let executing_seq t = t.executing_seq

let passed t ~time ~seq =
  time < t.clock || (time = t.clock && seq < t.executing_seq)

let check_kind t kind name =
  if kind < 0 || kind >= Array.length t.handlers then invalid_arg name

let post_at t ~time ~kind payload =
  if time < t.clock then invalid_arg "Engine.post_at: time in the past";
  check_kind t kind "Engine.post_at: kind not registered here";
  Heap.push_ints t.queue ~time ~seq:t.next_seq ~kind ~payload;
  t.next_seq <- t.next_seq + 1

let post_keyed t ~time ~seq ~kind payload =
  if time < t.clock then invalid_arg "Engine.post_keyed: time in the past";
  if seq < 0 then invalid_arg "Engine.post_keyed: negative seq";
  check_kind t kind "Engine.post_keyed: kind not registered here";
  Heap.push_ints t.queue ~time ~seq ~kind ~payload

(* A closure's slot in the slab, which the closure now occupies. *)
let stash t f =
  let slot = Slab.take t.closures in
  if slot >= Array.length t.closure_fns then
    t.closure_fns <- Slab.fit t.closures t.closure_fns ignore;
  t.closure_fns.(slot) <- f;
  slot

let schedule_at t ~time f =
  if time < t.clock then invalid_arg "Engine.schedule_at: time in the past";
  Heap.push_ints t.queue ~time ~seq:t.next_seq ~kind:closure_kind ~payload:(stash t f);
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
  Heap.push_ints t.queue ~time ~seq ~kind:closure_kind ~payload:(stash t f)

(* Locally scheduled events take sequence numbers 0, 1, 2, ...; events
   merged in from another shard are posted with [post_keyed] at keys at
   or above this base, so at equal time every local event of a tick
   sorts before foreign arrivals and foreign arrivals sort by their own
   deterministic keys. *)
let foreign_seq_base = 1 lsl 60

(* A key that has passed ran already (or was never scheduled): nothing
   to skip, and recording it would only leave garbage in [cancelled]. *)
let cancel t ~time ~seq =
  if not (passed t ~time ~seq) then
    Heap.push_ints t.cancelled ~time ~seq ~kind:0 ~payload:0

(* Whether the popped key [(time, seq)] was cancelled, consuming its
   mark. Marks below it are stale — their events ran, or were reserved
   and never scheduled — and are dropped on the way. *)
let rec is_cancelled c ~time ~seq =
  (not (Heap.is_empty c))
  &&
  let ct = Heap.min_time c and cs = Heap.min_seq c in
  if ct < time || (ct = time && cs < seq) then begin
    Heap.pop c;
    is_cancelled c ~time ~seq
  end
  else if ct = time && cs = seq then begin
    Heap.pop c;
    true
  end
  else false

(* The loop allocates nothing: the heap hands back the key, the kind
   and the payload unboxed, the kind picks the handler, and a run with
   no [until] is one to a horizon no event reaches that leaves the clock
   where the last event left it ([settle] false). A cancelled closure
   event frees its slab slot; the owner of any other kind released what
   its payload names when it cancelled.
   A foreign event publishes [next_seq] as its seq: every local key
   reserved before it sorts before it, and none reserved while it runs
   does, exactly as if those had been pushed and popped after it. *)
let run_to t ~horizon ~max_events ~settle =
  let q = t.queue in
  let executed = ref 0 in
  while
    !executed < max_events && (not (Heap.is_empty q)) && Heap.min_time q <= horizon
  do
    let time = Heap.min_time q and seq = Heap.min_seq q in
    let kind = Heap.min_kind q and payload = Heap.min_payload q in
    t.clock <- time;
    t.executing_seq <- (if seq >= foreign_seq_base then t.next_seq else seq);
    Heap.pop q;
    if is_cancelled t.cancelled ~time ~seq then begin
      if kind = closure_kind then release_closure t payload
    end
    else begin
      t.handlers.(kind) payload;
      incr executed;
      t.kind_counts.(kind) <- t.kind_counts.(kind) + 1
    end
  done;
  (* Nothing is due by the horizon any more: every key reserved so far
     has run, and the clock may move up to it. A run that [max_events]
     stopped with events still due keeps the last event's key and time,
     so those events still run at their own. *)
  if Heap.is_empty q || Heap.min_time q > horizon then begin
    t.executing_seq <- t.next_seq;
    if settle && t.clock < horizon then t.clock <- horizon
  end

let run_until t until = run_to t ~horizon:until ~max_events:max_int ~settle:true

let run ?until ?(max_events = max_int) t =
  match until with
  | Some u -> run_to t ~horizon:u ~max_events ~settle:true
  | None -> run_to t ~horizon:max_int ~max_events ~settle:false

let pending t = Heap.size t.queue
let next_time t = if Heap.is_empty t.queue then max_int else Heap.min_time t.queue
