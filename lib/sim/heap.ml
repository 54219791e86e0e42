(* The order lives in three int arrays: heap position [i] holds the key
   (times.(i), seqs.(i)) and the value slot slots.(i); the value itself
   sits out of line in vals.(slots.(i)). Sifts move only ints, so no
   level stores a pointer through the write barrier: a push stores its
   value once and a pop clears it once. [slots] is a permutation of
   0..capacity-1 whose tail past [len] is the stack of free value slots.
   Vacated value slots hold [dummy]: a popped value must not linger where
   it would keep its closure — and any packet bytes the closure captured
   — live until the slot is reused. *)
type 'a t = {
  dummy : 'a;
  mutable times : int array;
  mutable seqs : int array;
  mutable slots : int array;
  mutable vals : 'a array;
  mutable len : int;
}

let create ~dummy =
  { dummy; times = [||]; seqs = [||]; slots = [||]; vals = [||]; len = 0 }

let is_empty h = h.len = 0
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

(* Both sifts move a hole instead of swapping: the key being placed is
   compared against the positions it passes, and lands where a swapping
   sift would have left it. *)
let push h ~time ~seq v =
  if h.len = Array.length h.times then grow h;
  let slot = h.slots.(h.len) in
  h.vals.(slot) <- v;
  let i = ref h.len in
  h.len <- h.len + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pt = h.times.(parent) in
    if time < pt || (time = pt && seq < h.seqs.(parent)) then begin
      h.times.(!i) <- pt;
      h.seqs.(!i) <- h.seqs.(parent);
      h.slots.(!i) <- h.slots.(parent);
      i := parent
    end
    else continue := false
  done;
  h.times.(!i) <- time;
  h.seqs.(!i) <- seq;
  h.slots.(!i) <- slot

let check_nonempty h name = if h.len = 0 then invalid_arg name

let min_time h =
  check_nonempty h "Heap.min_time: empty heap";
  h.times.(0)

let min_seq h =
  check_nonempty h "Heap.min_seq: empty heap";
  h.seqs.(0)

(* Re-seat the last position's entry from the root down; the root's
   value slot joins the free tail. *)
let pop_value h =
  check_nonempty h "Heap.pop_value: empty heap";
  let top = h.slots.(0) in
  let v = h.vals.(top) in
  h.vals.(top) <- h.dummy;
  let n = h.len - 1 in
  h.len <- n;
  let time = h.times.(n) and seq = h.seqs.(n) and slot = h.slots.(n) in
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
             && (h.times.(r) < h.times.(l)
                || (h.times.(r) = h.times.(l) && h.seqs.(r) < h.seqs.(l)))
          then r
          else l
        in
        let ct = h.times.(c) in
        if ct < time || (ct = time && h.seqs.(c) < seq) then begin
          h.times.(!i) <- ct;
          h.seqs.(!i) <- h.seqs.(c);
          h.slots.(!i) <- h.slots.(c);
          i := c
        end
        else continue := false
      end
    done;
    h.times.(!i) <- time;
    h.seqs.(!i) <- seq;
    h.slots.(!i) <- slot
  end;
  h.slots.(n) <- top;
  v

let clear h =
  for i = 0 to h.len - 1 do
    h.vals.(h.slots.(i)) <- h.dummy
  done;
  h.len <- 0
