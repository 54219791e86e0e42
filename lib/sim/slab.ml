(* Free slots are chained through [next]: [free] is the first, and
   [next.(s)] the one after [s], or -1. Reuse is last-in first-out, so a
   steady load keeps cycling the same few slots. *)
type t = { mutable next : int array; mutable free : int }

let create () = { next = [||]; free = -1 }
let[@inline] capacity t = Array.length t.next

(* Only called with no slot free: the new ones are all free. *)
let grow t =
  let n = Array.length t.next in
  let cap = max 16 (2 * n) in
  let next = Array.make cap (-1) in
  Array.blit t.next 0 next 0 n;
  for s = n to cap - 2 do
    next.(s) <- s + 1
  done;
  t.next <- next;
  t.free <- n

let[@inline] take t =
  if t.free < 0 then grow t;
  let s = t.free in
  t.free <- t.next.(s);
  s

let[@inline] release t s =
  t.next.(s) <- t.free;
  t.free <- s

let fit t ?(per_slot = 1) column fill =
  let n = Array.length column and need = per_slot * capacity t in
  if n >= need then column
  else begin
    let fresh = Array.make need fill in
    Array.blit column 0 fresh 0 n;
    fresh
  end
