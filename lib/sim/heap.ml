(* Structure of arrays: slot [i] is (times.(i), seqs.(i), vals.(i)). Keys
   live unboxed in two int arrays and are compared inline, so neither a
   push nor a pop allocates. Vacated value slots (the popped position,
   and the unused tail of a freshly grown array) hold [dummy]: a popped
   value must not linger where it would keep its closure — and any packet
   bytes the closure captured — live until the slot is overwritten. *)
type 'a t = {
  dummy : 'a;
  mutable times : int array;
  mutable seqs : int array;
  mutable vals : 'a array;
  mutable len : int;
}

let create ~dummy = { dummy; times = [||]; seqs = [||]; vals = [||]; len = 0 }
let is_empty h = h.len = 0
let size h = h.len

let grow h =
  let cap = max 16 (2 * h.len) in
  let times = Array.make cap 0 and seqs = Array.make cap 0 in
  let vals = Array.make cap h.dummy in
  Array.blit h.times 0 times 0 h.len;
  Array.blit h.seqs 0 seqs 0 h.len;
  Array.blit h.vals 0 vals 0 h.len;
  h.times <- times;
  h.seqs <- seqs;
  h.vals <- vals

(* Both sifts move a hole instead of swapping: the key being placed is
   compared against the slots it passes, and lands where a swapping sift
   would have left it. *)
let push h ~time ~seq v =
  if h.len = Array.length h.times then grow h;
  let i = ref h.len in
  h.len <- h.len + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pt = h.times.(parent) in
    if time < pt || (time = pt && seq < h.seqs.(parent)) then begin
      h.times.(!i) <- pt;
      h.seqs.(!i) <- h.seqs.(parent);
      h.vals.(!i) <- h.vals.(parent);
      i := parent
    end
    else continue := false
  done;
  h.times.(!i) <- time;
  h.seqs.(!i) <- seq;
  h.vals.(!i) <- v

let check_nonempty h name = if h.len = 0 then invalid_arg name

let min_time h =
  check_nonempty h "Heap.min_time: empty heap";
  h.times.(0)

let min_seq h =
  check_nonempty h "Heap.min_seq: empty heap";
  h.seqs.(0)

(* Re-seat the last slot's entry from the root down. *)
let pop_value h =
  check_nonempty h "Heap.pop_value: empty heap";
  let top = h.vals.(0) in
  let n = h.len - 1 in
  h.len <- n;
  let time = h.times.(n) and seq = h.seqs.(n) and v = h.vals.(n) in
  h.vals.(n) <- h.dummy;
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
          h.vals.(!i) <- h.vals.(c);
          i := c
        end
        else continue := false
      end
    done;
    h.times.(!i) <- time;
    h.seqs.(!i) <- seq;
    h.vals.(!i) <- v
  end;
  top

let clear h =
  Array.fill h.vals 0 h.len h.dummy;
  h.len <- 0
