(* The order lives in three int arrays: heap position [i] holds the key
   (times.(i), seqs.(i)) and the value slot slots.(i); what the entry
   carries sits out of line at that slot: a value in vals, or two ints in
   kinds and payloads. Sifts move only ints, so no level stores a pointer
   through the write barrier: a value push stores its value once and a
   pop clears it once, and an int entry stores no pointer at all. [slots]
   is a permutation of 0..capacity-1 whose tail past [len] is the stack
   of free value slots. Vacated value slots hold [dummy]: a popped value
   must not linger where it would keep what it references live until the
   slot is reused. *)
type 'a t = {
  dummy : 'a;
  mutable times : int array;
  mutable seqs : int array;
  mutable slots : int array;
  mutable vals : 'a array;
  mutable kinds : int array;
  mutable payloads : int array;
  mutable len : int;
}

let create ~dummy =
  {
    dummy;
    times = [||];
    seqs = [||];
    slots = [||];
    vals = [||];
    kinds = [||];
    payloads = [||];
    len = 0;
  }

let[@inline] is_empty h = h.len = 0
let size h = h.len

(* Only called full, so every old slot is in use and the new ones are
   the free tail. *)
let grow h =
  let cap = max 16 (2 * h.len) in
  let times = Array.make cap 0 and seqs = Array.make cap 0 in
  let slots = Array.init cap Fun.id in
  let vals = Array.make cap h.dummy in
  Array.blit h.times 0 times 0 h.len;
  Array.blit h.seqs 0 seqs 0 h.len;
  Array.blit h.slots 0 slots 0 h.len;
  Array.blit h.vals 0 vals 0 h.len;
  h.times <- times;
  h.seqs <- seqs;
  h.slots <- slots;
  h.vals <- vals

(* The int columns are made on the first int push, so a heap of values
   never carries them. *)
let grow_ints h =
  let cap = Array.length h.times in
  let kinds = Array.make cap 0 and payloads = Array.make cap 0 in
  Array.blit h.kinds 0 kinds 0 (Array.length h.kinds);
  Array.blit h.payloads 0 payloads 0 (Array.length h.payloads);
  h.kinds <- kinds;
  h.payloads <- payloads

(* Both sifts move a hole instead of swapping: the key being placed is
   compared against the positions it passes, and lands where a swapping
   sift would have left it. They index without bounds checks: every
   position they touch is below [len], or is [len] itself on a push,
   and [push] grows the arrays first when [len] reaches their length.
   The checks cost about a third of an engine event. *)
external get : int array -> int -> int = "%array_unsafe_get"
external set : int array -> int -> int -> unit = "%array_unsafe_set"

let sift_up h ~time ~seq slot =
  let times = h.times and seqs = h.seqs and slots = h.slots in
  let i = ref h.len in
  h.len <- h.len + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pt = get times parent in
    if time < pt || (time = pt && seq < get seqs parent) then begin
      set times !i pt;
      set seqs !i (get seqs parent);
      set slots !i (get slots parent);
      i := parent
    end
    else continue := false
  done;
  set times !i time;
  set seqs !i seq;
  set slots !i slot

let push h ~time ~seq v =
  if h.len = Array.length h.times then grow h;
  let slot = h.slots.(h.len) in
  h.vals.(slot) <- v;
  sift_up h ~time ~seq slot

let[@inline] push_ints h ~time ~seq ~kind ~payload =
  if h.len = Array.length h.times then grow h;
  if Array.length h.kinds < Array.length h.times then grow_ints h;
  let slot = h.slots.(h.len) in
  h.kinds.(slot) <- kind;
  h.payloads.(slot) <- payload;
  sift_up h ~time ~seq slot

let[@inline] check_nonempty h name = if h.len = 0 then invalid_arg name

let[@inline] min_time h =
  check_nonempty h "Heap.min_time: empty heap";
  h.times.(0)

let[@inline] min_seq h =
  check_nonempty h "Heap.min_seq: empty heap";
  h.seqs.(0)

let[@inline] min_kind h =
  check_nonempty h "Heap.min_kind: empty heap";
  h.kinds.(h.slots.(0))

let[@inline] min_payload h =
  check_nonempty h "Heap.min_payload: empty heap";
  h.payloads.(h.slots.(0))

(* Re-seat the last position's entry from the root down; the root's
   value slot joins the free tail, and is returned. Called non-empty. *)
let[@inline] remove_min h =
  let times = h.times and seqs = h.seqs and slots = h.slots in
  let top = get slots 0 in
  let n = h.len - 1 in
  h.len <- n;
  let time = get times n and seq = get seqs n and slot = get slots n in
  if n > 0 then begin
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= n then continue := false
      else begin
        let r = l + 1 in
        (* the smaller child, ties to the left *)
        let c =
          if r < n
             && (get times r < get times l
                || (get times r = get times l && get seqs r < get seqs l))
          then r
          else l
        in
        let ct = get times c in
        if ct < time || (ct = time && get seqs c < seq) then begin
          set times !i ct;
          set seqs !i (get seqs c);
          set slots !i (get slots c);
          i := c
        end
        else continue := false
      end
    done;
    set times !i time;
    set seqs !i seq;
    set slots !i slot
  end;
  set slots n top;
  top

let pop_value h =
  check_nonempty h "Heap.pop_value: empty heap";
  let top = remove_min h in
  let v = h.vals.(top) in
  h.vals.(top) <- h.dummy;
  v

let[@inline] pop h =
  check_nonempty h "Heap.pop: empty heap";
  ignore (remove_min h : int)

let clear h =
  for i = 0 to h.len - 1 do
    h.vals.(h.slots.(i)) <- h.dummy
  done;
  h.len <- 0
