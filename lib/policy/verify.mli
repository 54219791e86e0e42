(** The compiled ≡ queried property.

    For every intent expressible as a plain query — [Intent.direct], no
    constraints — the compiler must return {e bit-identical} output to the
    directory's own per-query answer: same hop list, same segments, same
    token bytes. This holds because the compiler's unconstrained path IS a
    directory query, so both sides replay the same epoch-guarded cached
    answer (tokens keep their original nonces). Any divergence means the
    compiler computed a route instead of asking. *)

type report = { checked : int; failed : int }

val sweep :
  Dirsvc.Directory.t -> pairs:(Topo.Graph.node_id * Dirsvc.Name.t) list ->
  ?selector:Dirsvc.Directory.selector -> ?priority:Token.Priority.t ->
  unit -> report
(** [failed] counts pairs whose compiled and queried answers differ: a
    segment (port, flags, token, ...), the hop list, or whether a route
    was found at all — the number E23's regression gate requires to be
    zero. *)
