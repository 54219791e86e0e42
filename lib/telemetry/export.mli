(** Exporters: one call dumps a full snapshot of a simulation's metrics
    (optionally with the typed event log and recorded flights) as JSON, or
    as Prometheus text exposition format. *)

(** A minimal JSON document model (also used by the bench harness for its
    [BENCH_*.json] outputs). *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  val to_string : t -> string
  (** Compact rendering with proper string escaping. *)
end

val json_value : ?events:Events.t -> ?flights:Flight.t -> Registry.t -> Json.t

val json : ?events:Events.t -> ?flights:Flight.t -> Registry.t -> string
(** [{"metrics": [...], "events": [...], "flights": [...]}] — metrics in
    registration order; histograms expose count/sum/min/max/mean and
    p50/p90/p99. *)

val prometheus : Registry.t -> string
(** Prometheus text format: counters and gauges as single samples,
    histograms as cumulative [_bucket{le=...}] series plus [_sum] and
    [_count]. *)
