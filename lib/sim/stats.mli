(** Measurement primitives: running summaries and time-weighted averages
    (for queue lengths and link utilization). *)

(** {1 Scalar summary} *)

module Summary : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  (** 0 when empty. *)

  val variance : t -> float
  (** Population variance; 0 when fewer than 2 samples. *)

  val min : t -> float
  (** [infinity] when empty. *)

  val max : t -> float
  (** [neg_infinity] when empty. *)
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

  val max : t -> float
end
