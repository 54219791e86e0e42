(* Zipf-distributed popularity ranks for directory-scale query workloads:
   rank r (0-based) is drawn with probability (r+1)^-s / H_{n,s}.

   Sampling is inverse-CDF over a precomputed cumulative table (O(log n)
   per draw, O(n) floats resident), driven by a caller-supplied
   [Sim.Rng.t]. Determinism therefore reduces to the rng stream: hand each
   sweep task [Sim.Rng.stream ~seed index] (as Parallel.Sweep does) and
   the draw sequence is bit-identical at any --jobs width. *)

type t = {
  rng : Sim.Rng.t;
  cdf : float array;  (* cdf.(i) = P(rank <= i), cdf.(n-1) = 1.0 *)
}

let create rng ~n ~s =
  if n <= 0 then invalid_arg "Zipf.create: n must be positive";
  if s < 0.0 then invalid_arg "Zipf.create: s must be non-negative";
  let cdf = Array.make n 0.0 in
  let total = ref 0.0 in
  for i = 0 to n - 1 do
    total := !total +. (1.0 /. (float_of_int (i + 1) ** s));
    cdf.(i) <- !total
  done;
  let z = !total in
  for i = 0 to n - 1 do
    cdf.(i) <- cdf.(i) /. z
  done;
  cdf.(n - 1) <- 1.0;
  { rng; cdf }

let draw t =
  let u = Sim.Rng.float t.rng 1.0 in
  (* smallest i with cdf.(i) > u *)
  let lo = ref 0 and hi = ref (Array.length t.cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.cdf.(mid) > u then hi := mid else lo := mid + 1
  done;
  !lo

let pmf t i =
  if i < 0 || i >= Array.length t.cdf then invalid_arg "Zipf.pmf";
  if i = 0 then t.cdf.(0) else t.cdf.(i) -. t.cdf.(i - 1)

let mass_below t i =
  if i <= 0 then 0.0
  else if i >= Array.length t.cdf then 1.0
  else t.cdf.(i - 1)
