module Counter = struct
  type t = { mutable v : int }

  let create () = { v = 0 }
  let incr c = c.v <- c.v + 1
  let add c n = c.v <- c.v + n
  let value c = c.v
end

module Gauge = struct
  type t = { mutable v : float }

  let create () = { v = 0.0 }
  let set g v = g.v <- v
  let value g = g.v
end

module Hist = struct
  (* Log-linear buckets (HDR-style): [sub] linear sub-buckets per octave,
     so the relative bucket width is bounded by 1/sub (~6%) at any scale.
     Values 0..sub-1 land in their own exact bucket. *)
  let sub_bits = 4
  let sub = 1 lsl sub_bits
  let n_buckets = (60 + 1) * sub

  type t = {
    counts : int array;
    mutable count : int;
    mutable sum : int;
    mutable min_v : int;
    mutable max_v : int;
  }

  let create () =
    { counts = Array.make n_buckets 0; count = 0; sum = 0; min_v = max_int; max_v = 0 }

  let log2_floor v =
    let rec go v acc = if v <= 1 then acc else go (v lsr 1) (acc + 1) in
    go v 0

  let index_of v =
    if v < sub then v
    else begin
      let shift = log2_floor v - sub_bits in
      let idx = ((shift + 1) * sub) + (v lsr shift) - sub in
      if idx >= n_buckets then n_buckets - 1 else idx
    end

  let upper_bound i =
    if i < sub then i
    else begin
      let shift = (i / sub) - 1 in
      let top = sub + (i mod sub) in
      ((top + 1) lsl shift) - 1
    end

  let observe t v =
    let v = if v < 0 then 0 else v in
    let i = index_of v in
    t.counts.(i) <- t.counts.(i) + 1;
    t.count <- t.count + 1;
    t.sum <- t.sum + v;
    if v < t.min_v then t.min_v <- v;
    if v > t.max_v then t.max_v <- v

  let count t = t.count
  let sum t = t.sum
  let min t = if t.count = 0 then 0 else t.min_v
  let max t = t.max_v
  let mean t = if t.count = 0 then 0.0 else float_of_int t.sum /. float_of_int t.count

  let percentile t p =
    if t.count = 0 then 0
    else begin
      let p = Float.max 0.0 (Float.min 1.0 p) in
      let rank = Stdlib.max 1 (int_of_float (ceil (p *. float_of_int t.count))) in
      let rec walk i seen =
        if i >= n_buckets then t.max_v
        else begin
          let seen = seen + t.counts.(i) in
          if seen >= rank then upper_bound i else walk (i + 1) seen
        end
      in
      walk 0 0
    end

  let buckets t =
    let acc = ref [] in
    for i = n_buckets - 1 downto 0 do
      if t.counts.(i) > 0 then acc := (upper_bound i, t.counts.(i)) :: !acc
    done;
    !acc
end

type labels = (string * string) list

type kind = Counter_k of Counter.t | Gauge_k of Gauge.t | Hist_k of Hist.t

type metric = { name : string; help : string; labels : labels; kind : kind }

type t = {
  tbl : (string * labels, metric) Hashtbl.t;
  mutable order : metric list;  (* reverse registration order *)
}

let create () = { tbl = Hashtbl.create 64; order = [] }
let size t = Hashtbl.length t.tbl

let canonical labels = List.sort compare labels

let register t ~help ~labels name make =
  let labels = canonical labels in
  let key = (name, labels) in
  match Hashtbl.find_opt t.tbl key with
  | Some m -> m
  | None ->
    let m = { name; help; labels; kind = make () } in
    Hashtbl.replace t.tbl key m;
    t.order <- m :: t.order;
    m

let kind_clash name =
  invalid_arg (Printf.sprintf "Telemetry.Registry: %s already registered with another type" name)

let counter t ?(help = "") ?(labels = []) name =
  match (register t ~help ~labels name (fun () -> Counter_k (Counter.create ()))).kind with
  | Counter_k c -> c
  | Gauge_k _ | Hist_k _ -> kind_clash name

let gauge t ?(help = "") ?(labels = []) name =
  match (register t ~help ~labels name (fun () -> Gauge_k (Gauge.create ()))).kind with
  | Gauge_k g -> g
  | Counter_k _ | Hist_k _ -> kind_clash name

let histogram t ?(help = "") ?(labels = []) name =
  match (register t ~help ~labels name (fun () -> Hist_k (Hist.create ()))).kind with
  | Hist_k h -> h
  | Counter_k _ | Gauge_k _ -> kind_clash name

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

type row = { row_name : string; row_help : string; row_labels : labels; row_sample : sample }

let sample_of = function
  | Counter_k c -> Counter_sample (Counter.value c)
  | Gauge_k g -> Gauge_sample (Gauge.value g)
  | Hist_k h ->
    Hist_sample
      {
        h_count = Hist.count h;
        h_sum = Hist.sum h;
        h_min = Hist.min h;
        h_max = Hist.max h;
        h_mean = Hist.mean h;
        h_p50 = Hist.percentile h 0.5;
        h_p90 = Hist.percentile h 0.9;
        h_p99 = Hist.percentile h 0.99;
        h_buckets = Hist.buckets h;
      }

let snapshot t =
  List.rev_map
    (fun m ->
      { row_name = m.name; row_help = m.help; row_labels = m.labels; row_sample = sample_of m.kind })
    t.order
