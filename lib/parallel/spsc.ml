(* Unbounded single-producer single-consumer channel: a linked list of
   fixed-size segments.

   The producer owns the tail segment and its fill index; the consumer
   owns the head segment, its read index and the popped count. The only
   shared word is the atomic [pushed] count: the producer writes a slot
   (and, when it opens a segment, the previous segment's [next] link)
   before it bumps [pushed], so a consumer that observes the bump also
   observes the slot and the link (publication safety). A push never
   waits; a segment the consumer has left is garbage.

   Slots hold messages unboxed, so a push allocates only its share of a
   segment. A segment is created full of its first message, and the
   consumer overwrites each slot it reads with that same message (slot
   0, which it never clears): a segment keeps at most its first message
   reachable after it has been read. The channel starts on an empty
   segment, so the first push opens a real one. *)

let segment_size = 256

type 'a segment = {
  slots : 'a array;
  mutable next : 'a segment option;  (* set by the producer, once *)
}

type 'a t = {
  mutable tail : 'a segment;  (* producer: segment being filled *)
  mutable tail_i : int;  (* producer: next free slot of [tail] *)
  mutable head : 'a segment;  (* consumer: segment being read *)
  mutable head_i : int;  (* consumer: next slot to read in [head] *)
  mutable popped : int;  (* consumer *)
  pushed : int Atomic.t;
}

let create () =
  let s = { slots = [||]; next = None } in
  { tail = s; tail_i = 0; head = s; head_i = 0; popped = 0; pushed = Atomic.make 0 }

let push t v =
  if t.tail_i = Array.length t.tail.slots then begin
    let s = { slots = Array.make segment_size v; next = None } in
    t.tail.next <- Some s;
    t.tail <- s;
    t.tail_i <- 0
  end;
  t.tail.slots.(t.tail_i) <- v;
  t.tail_i <- t.tail_i + 1;
  Atomic.incr t.pushed

let drain t f =
  let pushed = Atomic.get t.pushed in
  while t.popped < pushed do
    if t.head_i = Array.length t.head.slots then begin
      (match t.head.next with Some s -> t.head <- s | None -> assert false);
      t.head_i <- 0
    end;
    let slots = t.head.slots in
    let v = slots.(t.head_i) in
    slots.(t.head_i) <- slots.(0);
    t.head_i <- t.head_i + 1;
    t.popped <- t.popped + 1;
    f v
  done

let is_empty t = t.popped = Atomic.get t.pushed
