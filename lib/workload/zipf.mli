(** Zipf-distributed popularity ranks (the standard model for name-lookup
    skew): rank [r] (0-based, 0 most popular) has probability
    [(r+1)^-s / H_{n,s}].

    Deterministic given its rng: build one from
    [Sim.Rng.stream ~seed index] (what {!Parallel.Sweep} hands each grid
    task) and the draw sequence is bit-identical at any [--jobs] width. *)

type t

val create : Sim.Rng.t -> n:int -> s:float -> t
(** [n] ranks with exponent [s] (0 = uniform; larger = more skewed).
    O(n) setup (one cumulative table); raises [Invalid_argument] on
    [n <= 0] or negative [s]. *)

val draw : t -> int
(** A rank in [0, n); O(log n). *)

val pmf : t -> int -> float
(** Probability of a rank. *)

val mass_below : t -> int -> float
(** Total probability of ranks [0 .. i-1] — e.g. the best possible hit
    ratio of a cache holding the [i] most popular names. *)
