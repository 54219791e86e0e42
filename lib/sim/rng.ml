type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = seed }

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t =
  let seed = bits64 t in
  create (mix64 seed)

(* Stream seeds depend only on (seed, index): two hash rounds separated by
   an odd-gamma jump keep nearby indices far apart in state space, and the
   derivation never touches a shared generator, so a sweep can hand stream
   [i] to whichever domain runs task [i] and the produced values are
   independent of scheduling order. *)
let stream_seed seed index =
  if index < 0 then invalid_arg "Rng.stream_seed";
  mix64
    (Int64.add (mix64 seed) (Int64.mul golden_gamma (Int64.of_int (index + 1))))

let stream ~seed index = create (stream_seed seed index)

let int t n =
  if n <= 0 then invalid_arg "Rng.int";
  (* Rejection-free for our purposes: modulo bias is negligible for the
     bounds used in simulations (n << 2^62). The shift keeps the value
     within OCaml's 63-bit signed int range. *)
  let v = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  v mod n

let float t x =
  (* 53 random bits into [0,1). *)
  let v = Int64.to_int (Int64.shift_right_logical (bits64 t) 11) in
  float_of_int v /. 9007199254740992.0 *. x

let exponential t ~mean =
  if mean <= 0.0 then invalid_arg "Rng.exponential";
  let u = ref (float t 1.0) in
  if !u = 0.0 then u := 1e-300;
  -.mean *. log !u

let uniform_int t ~lo ~hi =
  if hi < lo then invalid_arg "Rng.uniform_int";
  lo + int t (hi - lo + 1)

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
