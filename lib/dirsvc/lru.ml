(* Bounded LRU map: hashtable over an intrusive doubly-linked recency
   list. Every operation is O(1); capacity <= 0 disables the cache (finds
   miss, sets are dropped), which gives benchmarks a zero-cost "cold"
   configuration with the same code path. *)

type ('k, 'v) entry = {
  key : 'k;
  mutable value : 'v;
  mutable newer : ('k, 'v) entry option;
  mutable older : ('k, 'v) entry option;
}

type ('k, 'v) t = {
  cap : int;
  tbl : ('k, ('k, 'v) entry) Hashtbl.t;
  mutable head : ('k, 'v) entry option;  (* most recently used *)
  mutable tail : ('k, 'v) entry option;  (* least recently used *)
  on_evict : 'k -> 'v -> unit;
}

let create ?(on_evict = fun _ _ -> ()) ~cap () =
  { cap; tbl = Hashtbl.create (max 16 (min cap 4096)); head = None; tail = None; on_evict }

let enabled t = t.cap > 0
let length t = Hashtbl.length t.tbl

let unlink t e =
  (match e.newer with Some n -> n.older <- e.older | None -> t.head <- e.older);
  (match e.older with Some o -> o.newer <- e.newer | None -> t.tail <- e.newer);
  e.newer <- None;
  e.older <- None

let push_front t e =
  e.older <- t.head;
  e.newer <- None;
  (match t.head with Some h -> h.newer <- Some e | None -> t.tail <- Some e);
  t.head <- Some e

let touch t e =
  match t.head with
  | Some h when h == e -> ()
  | _ ->
    unlink t e;
    push_front t e

let find t k =
  match Hashtbl.find_opt t.tbl k with
  | None -> None
  | Some e ->
    touch t e;
    Some e.value

let evict_tail t =
  match t.tail with
  | None -> ()
  | Some e ->
    unlink t e;
    Hashtbl.remove t.tbl e.key;
    t.on_evict e.key e.value

let set t k v =
  if t.cap > 0 then begin
    match Hashtbl.find_opt t.tbl k with
    | Some e ->
      e.value <- v;
      touch t e
    | None ->
      let e = { key = k; value = v; newer = None; older = None } in
      Hashtbl.replace t.tbl k e;
      push_front t e;
      if Hashtbl.length t.tbl > t.cap then evict_tail t
  end
