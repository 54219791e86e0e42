(** Measurement primitives: counters, running summaries, histograms and
    time-weighted averages (for queue lengths and link utilization). *)

(** {1 Scalar summary} *)

module Summary : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val total : t -> float
  val mean : t -> float
  (** 0 when empty. *)

  val variance : t -> float
  (** Population variance; 0 when fewer than 2 samples. *)

  val min : t -> float
  (** [infinity] when empty. *)

  val max : t -> float
  (** [neg_infinity] when empty. *)
end

(** {1 Histogram with fixed bucket width} *)

module Histogram : sig
  type t

  val create : bucket_width:float -> buckets:int -> t
  (** Values land in bucket [floor (v / width)]; values beyond the last
      bucket are clamped into it, negatives into bucket 0. *)

  val add : t -> float -> unit
  val count : t -> int
  val bucket_count : t -> int -> int
  val percentile : t -> float -> float
  (** [percentile t 0.99] approximates the 99th percentile as the upper
      edge of the bucket containing that rank.

      Edge behavior, relied on by callers:
      - empty histogram: [0.0] for every [p], including 0 and 1;
      - [p = 0.0]: the upper edge of the {e first} bucket
        ([bucket_width]), whether or not it holds any samples — rank 0 is
        satisfied by a cumulative count of 0;
      - [p = 1.0]: the upper edge of the last non-empty bucket;
      - [p > 1.0]: the upper edge of the whole range
        ([bucket_width *. buckets]), since the rank exceeds every
        cumulative count. Out-of-range [p] is not rejected. *)

  val mean : t -> float
end

(** {1 Time-weighted value (queue length, instantaneous utilization)} *)

module Timeweighted : sig
  type t

  val create : start:Time.t -> initial:float -> t

  val set : t -> now:Time.t -> float -> unit
  (** Record that the tracked value changed to the given level at [now].
      Time must be monotone non-decreasing. *)

  val mean : t -> now:Time.t -> float
  (** Time-average of the value from [start] to [now]. *)

  val current : t -> float
  val max : t -> float
end

(** {1 Rate estimation over a sliding window} *)

module Rate : sig
  type t

  val create : window:Time.t -> t
  (** Events are remembered for [window]; the estimated rate is
      events-in-window / window. *)

  val tick : t -> now:Time.t -> amount:float -> unit
  val per_second : t -> now:Time.t -> float
end
