(** Deterministic splitmix64 pseudo-random generator.

    Self-contained so simulation runs are reproducible bit-for-bit across
    OCaml releases (the stdlib [Random] algorithm may change between
    versions). *)

type t

val create : int64 -> t
(** Generator seeded with the given value. Equal seeds give equal streams. *)

val split : t -> t
(** A statistically independent generator derived from the current state.
    Used to give each traffic source its own stream. *)

val stream_seed : int64 -> int -> int64
(** [stream_seed seed i] is the seed of the [i]-th (0-based) substream of
    [seed]: a pure function of its arguments, so parallel sweeps can derive
    per-task seeds that do not depend on how tasks are scheduled across
    domains. Raises [Invalid_argument] on a negative index. *)

val stream : seed:int64 -> int -> t
(** [stream ~seed i] is [create (stream_seed seed i)]. *)

val bits64 : t -> int64
(** Next 64 uniformly random bits. *)

val int : t -> int -> int
(** [int t n] is uniform in [0, n). Raises [Invalid_argument] if [n <= 0]. *)

val float : t -> float -> float
(** [float t x] is uniform in [0, x). *)

val exponential : t -> mean:float -> float
(** Exponentially distributed with the given mean (> 0). *)

val uniform_int : t -> lo:int -> hi:int -> int
(** Uniform on the inclusive range [lo, hi]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
