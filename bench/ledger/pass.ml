(* The run configuration and the end-to-end numbers of one timed pass.

   An "op" is the unit of work a workload's user asks for: a packet
   delivered to a host (the three packet workloads) or a directory query
   answered (dir_zipf). *)

type config = {
  seed : int;
  seconds : float;  (** how long the timed passes run, at least three of them *)
  smoke : bool;  (** tiny sizes, one pass: a correctness run, not a measurement *)
}

type t = {
  rate : float;  (** ops per wall second *)
  serial_rate : float;  (** the same with the whole simulation on one domain *)
  words_per_op : float;  (** words allocated (minor + major - promoted) per op *)
  p50_us : float;  (** wall time of one op: median, ... *)
  p90_us : float;  (** ... 90th ... *)
  p99_us : float;  (** ... and 99th percentile *)
  samples : int;  (** ops behind the percentiles *)
  setups : float list;  (** seconds to set up each simulation the pass ran *)
}

let scaled cfg ~full ~smoke = if cfg.smoke then smoke else full

(* The warm-up pass runs at a tenth of full size. *)
let warmup_size full = max 1 (full / 10)

(* Timed passes until [cfg.seconds] have elapsed, and never fewer than
   three, so every median has a middle. *)
let repeat cfg f =
  if cfg.smoke then [ f () ]
  else
    let t0 = Probe.now_ns () in
    let rec go acc n =
      let acc = f () :: acc in
      if n + 1 >= 3 && Probe.seconds_since t0 >= cfg.seconds then List.rev acc
      else go acc (n + 1)
    in
    go [] 0

(* An untraced and a traced run, three times over (once for smoke):
   alternating them lets a slow spell of the machine hit both alike. *)
let alternate cfg plain traced =
  List.init (scaled cfg ~full:3 ~smoke:1) (fun _ ->
      let p = plain () in
      (p, traced ()))

(* p50, p90 and p99 in microseconds of the first [n] samples
   (nanoseconds), sorting them in place. *)
let latency_us (a : int array) n =
  let s = if n = Array.length a then a else Array.sub a 0 n in
  Array.sort compare s;
  let us p = float_of_int (Stats.percentile_sorted s p) /. 1e3 in
  (us 0.5, us 0.9, us 0.99)

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

(* End-to-end metrics, each the median over the passes. The 90th and
   99th percentiles swing by a sixth to a quarter between runs on a
   shared machine, too much to gate on; they go to the detail file. *)
let fields =
  [
    ("ops_per_s", "1/s", fun p -> p.rate);
    ("serial_ops_per_s", "1/s", fun p -> p.serial_rate);
    ("gc_words_per_op", "words", fun p -> p.words_per_op);
    ("op_p50_us", "us", fun p -> p.p50_us);
  ]

let end_to_end passes =
  let setups = List.concat_map (fun p -> p.setups) passes in
  List.map
    (fun (name, unit_, f) -> Report.metric name unit_ (Stats.median (List.map f passes)))
    fields
  @ [
      Report.metric "setup_s" "s" (Stats.median setups);
      Report.metric "peak_heap_mb" "MB" (peak_heap_mb ());
    ]

let detail passes =
  let spread f = Report.spread (List.map f passes) in
  Report.Obj
    (List.map (fun (name, _, f) -> (name, spread f)) fields
    @ [
        ("op_p90_us", spread (fun p -> p.p90_us));
        ("op_p99_us", spread (fun p -> p.p99_us));
        ("setup_s", Report.spread (List.concat_map (fun p -> p.setups) passes));
        ("latency_samples", Report.Arr (List.map (fun p -> Report.Int p.samples) passes));
      ])
