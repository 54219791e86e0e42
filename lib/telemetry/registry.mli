(** The metrics registry: named counters, gauges and log-linear latency
    histograms, registered once (idempotently) under a name plus a label
    set and scraped in O(metrics) by {!snapshot} / {!Export}.

    Handles returned by {!counter} / {!gauge} / {!histogram} are plain
    mutable cells: incrementing one is as cheap as bumping a record field,
    so components keep a handle per metric and hit it on the hot path.
    Registering the same [(name, labels)] pair again returns the existing
    handle, so idempotent component constructors need no special casing. *)

(** {1 Instruments} *)

module Counter : sig
  type t

  val incr : t -> unit
  val add : t -> int -> unit
  val value : t -> int
end

module Gauge : sig
  type t

  val set : t -> float -> unit
end

(** Log-linear histogram (HDR-style): 16 linear sub-buckets per power of
    two, so the relative error of any recorded value is bounded by ~6%
    from nanoseconds to hours. Intended for latencies in {!Sim.Time.t}
    (integer nanoseconds); negative samples clamp to 0. *)
module Hist : sig
  type t

  val observe : t -> int -> unit
  val count : t -> int
  val sum : t -> int

  val min : t -> int
  (** 0 when empty. *)

  val max : t -> int
  (** 0 when empty. *)

  val percentile : t -> float -> int
  (** [percentile t p] for p in [0,1] (clamped): the upper bound of the
      bucket holding the value of rank [max 1 (ceil (p * count))]. Hence
      [percentile t 0.0] is the bucket of the smallest sample and
      [percentile t 1.0] that of the largest; 0 when empty. *)
end

(** {1 Registry} *)

type t

type labels = (string * string) list
(** Label sets are order-insensitive: they are canonicalized on
    registration. *)

val create : unit -> t
val size : t -> int

val counter : t -> ?help:string -> ?labels:labels -> string -> Counter.t
val gauge : t -> ?help:string -> ?labels:labels -> string -> Gauge.t
val histogram : t -> ?help:string -> ?labels:labels -> string -> Hist.t
(** Each returns the existing instrument when [(name, labels)] is already
    registered, and raises [Invalid_argument] if it was registered as a
    different instrument type. *)

(** {1 Scraping} *)

type hist_sample = {
  h_count : int;
  h_sum : int;
  h_min : int;
  h_max : int;
  h_mean : float;
  h_p50 : int;
  h_p90 : int;
  h_p99 : int;
  h_buckets : (int * int) list;
}

type sample =
  | Counter_sample of int
  | Gauge_sample of float
  | Hist_sample of hist_sample

type row = {
  row_name : string;
  row_help : string;
  row_labels : labels;
  row_sample : sample;
}

val snapshot : t -> row list
(** All metrics in registration order, each read once. *)
