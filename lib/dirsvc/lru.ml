(* Bounded LRU map from ints: a hashtable over an intrusive doubly-linked
   recency ring closed by a sentinel entry, so no link is an option and a
   hit allocates nothing. Every operation is O(1); capacity <= 0 disables
   the cache (finds miss, sets are dropped), which gives benchmarks a
   zero-cost "cold" configuration with the same code path. *)

module Tbl = Hashtbl.Make (Int)

type 'v entry = {
  key : int;
  mutable value : 'v;
  mutable newer : 'v entry;
  mutable older : 'v entry;
}

type 'v t = {
  cap : int;
  tbl : 'v entry Tbl.t;
  ring : 'v entry;  (* sentinel: [ring.older] is the most recently used *)
  on_evict : int -> 'v -> unit;
}

let create ?(on_evict = fun _ _ -> ()) ~cap ~absent () =
  let rec ring = { key = -1; value = absent; newer = ring; older = ring } in
  { cap; tbl = Tbl.create (max 16 (min cap 4096)); ring; on_evict }

let enabled t = t.cap > 0
let length t = Tbl.length t.tbl

let unlink e =
  e.newer.older <- e.older;
  e.older.newer <- e.newer

let push_front t e =
  e.newer <- t.ring;
  e.older <- t.ring.older;
  t.ring.older.newer <- e;
  t.ring.older <- e

let find t k =
  match Tbl.find t.tbl k with
  | e ->
    unlink e;
    push_front t e;
    e.value
  | exception Not_found -> t.ring.value

let set t k v =
  if t.cap > 0 then begin
    match Tbl.find t.tbl k with
    | e ->
      e.value <- v;
      unlink e;
      push_front t e
    | exception Not_found ->
      let e = { key = k; value = v; newer = t.ring; older = t.ring } in
      Tbl.replace t.tbl k e;
      push_front t e;
      if Tbl.length t.tbl > t.cap then begin
        let lru = t.ring.newer in
        unlink lru;
        Tbl.remove t.tbl lru.key;
        t.on_evict lru.key lru.value
      end
  end

let to_list t =
  let rec walk e acc = if e == t.ring then acc else walk e.newer ((e.key, e.value) :: acc) in
  walk t.ring.newer []
