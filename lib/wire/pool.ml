(* Exact-size bucketed buffer arena.

   The forwarding fast path produces buffers whose sizes recur every
   packet (per-hop trailer growth is deterministic), so a free list per
   exact size turns steady-state forwarding into pure reuse: every
   [alloc] after warm-up is a list pop, never a [Bytes.create]. Buffers
   are handed out dirty — callers must overwrite every byte they expose.

   The pool is deliberately not registered with telemetry: pooled and
   unpooled runs of the same simulation must produce bit-identical
   merged telemetry, so pool hit/miss accounting lives off to the side
   and is only surfaced by benches that ask for it. Not thread-safe;
   one pool belongs to one world (one domain). *)

type stats = { hits : int; misses : int; releases : int; discarded : int }

type t = {
  buckets : (int, bytes list ref) Hashtbl.t;
  max_held : int; (* per-bucket cap on retained buffers *)
  held : (int, int) Hashtbl.t; (* size -> retained count *)
  mutable hits : int;
  mutable misses : int;
  mutable releases : int;
  mutable discarded : int;
}

let create ?(max_held = 64) () =
  if max_held < 0 then invalid_arg "Pool.create";
  {
    buckets = Hashtbl.create 64;
    max_held;
    held = Hashtbl.create 64;
    hits = 0;
    misses = 0;
    releases = 0;
    discarded = 0;
  }

let alloc t n =
  if n < 0 then invalid_arg "Pool.alloc";
  match Hashtbl.find_opt t.buckets n with
  | Some ({ contents = b :: rest } as cell) ->
    cell := rest;
    Hashtbl.replace t.held n (Hashtbl.find t.held n - 1);
    t.hits <- t.hits + 1;
    b
  | Some { contents = [] } | None ->
    t.misses <- t.misses + 1;
    Bytes.create n

let release t b =
  let n = Bytes.length b in
  t.releases <- t.releases + 1;
  let count = match Hashtbl.find_opt t.held n with Some c -> c | None -> 0 in
  if count >= t.max_held then t.discarded <- t.discarded + 1
  else begin
    (match Hashtbl.find_opt t.buckets n with
    | Some cell -> cell := b :: !cell
    | None -> Hashtbl.replace t.buckets n (ref [ b ]));
    Hashtbl.replace t.held n (count + 1)
  end

let stats t =
  { hits = t.hits; misses = t.misses; releases = t.releases; discarded = t.discarded }
