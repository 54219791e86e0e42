(** The compiled ≡ queried property.

    For every intent expressible as a plain query — [Intent.direct], no
    constraints — the compiler must return {e bit-identical} output to the
    directory's own per-query answer: same hop list, same segments, same
    token bytes. This holds because the compiler's unconstrained path IS a
    directory query, so both sides replay the same epoch-guarded cached
    answer (tokens keep their original nonces). Any divergence means the
    compiler computed a route instead of asking. *)

type outcome =
  | Equal  (** bit-identical routes, or both found no route *)
  | Route_mismatch  (** a segment differed (port, flags, token, ...) *)
  | Hops_mismatch  (** same segments but a different hop list *)
  | Presence_mismatch  (** exactly one side found a route *)

val check :
  Dirsvc.Directory.t -> client:Topo.Graph.node_id -> target:Dirsvc.Name.t ->
  ?selector:Dirsvc.Directory.selector -> ?priority:Token.Priority.t ->
  unit -> outcome

type report = { checked : int; failed : int }

val sweep :
  Dirsvc.Directory.t -> pairs:(Topo.Graph.node_id * Dirsvc.Name.t) list ->
  ?selector:Dirsvc.Directory.selector -> ?priority:Token.Priority.t ->
  unit -> report
(** [failed] counts non-[Equal] outcomes — the number E23's regression
    gate requires to be zero. *)
