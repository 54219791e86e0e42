(** Lowering intents to concrete VIPER source routes.

    Compilation runs against the directory, not beside it: unconstrained
    legs are answered by {!Dirsvc.Directory.query} itself (memoized SPTs,
    epoch guards, minted tokens — and, for a plain [direct] intent, the
    {e identical} cached answer a client query would get, which is what
    {!Verify} property-checks), while constrained legs run
    {!Topo.Graph.shortest_path_excluding} on the directory's graph under
    the directory's own selector metric.

    When the intent carries alternatives ([alt]) or explicit [protect],
    the primary route is compiled into a Slick-Packets-style in-header
    DAG: each router segment carries, in its [branch] field, the best
    route to the destination that survives that hop's link dying, so the
    router fails over locally — no drop, no directory round trip, and the
    reverse trailer records the path actually taken. *)

type error =
  | Unknown_name of Dirsvc.Name.t
  | Unreachable  (** no path satisfies the spec (or client = target) *)
  | Empty_intent
  | Route_too_long

val error_to_string : error -> string

type compiled = {
  route : Sirpent.Route.t;
      (** the primary, with in-header branches attached when protected *)
  plain : Sirpent.Route.t;  (** the primary without branches *)
  hops : Topo.Graph.hop list;  (** the primary's path *)
  alternates : Sirpent.Route.t list;
      (** later alt specs compiled to plain routes (deduplicated) — the
          client-side failover ladder for VMTP *)
  branch_count : int;  (** hops that carry a branch route *)
  header_bytes : int;  (** bytes-on-wire of [route]'s header *)
  plain_header_bytes : int;  (** bytes-on-wire of [plain]'s header *)
}

val compile :
  Dirsvc.Directory.t -> client:Topo.Graph.node_id -> target:Dirsvc.Name.t ->
  ?selector:Dirsvc.Directory.selector -> ?priority:Token.Priority.t ->
  Intent.t -> (compiled, error) result
(** Defaults mirror {!Dirsvc.Directory.query}: [Lowest_delay],
    highest priority. Specs are tried in normal-form preference order; the
    first that compiles is the primary and the remainder become
    [alternates]. *)
