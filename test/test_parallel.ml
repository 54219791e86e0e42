(* The parallel sweep engine: pool semantics, deterministic RNG streams,
   snapshot merging, and the headline guarantee — the same sweep seed
   yields identical merged results at --jobs 1 and --jobs 4. *)

module G = Topo.Graph
module W = Netsim.World
module Reg = Telemetry.Registry

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---- Pool ---- *)

let pool_orders_results () =
  let tasks = Array.init 23 (fun i -> fun () -> i * i) in
  List.iter
    (fun jobs ->
      let r = Parallel.Pool.run_exn ~jobs tasks in
      check_int (Printf.sprintf "length at jobs=%d" jobs) 23 (Array.length r);
      Array.iteri
        (fun i v -> check_int (Printf.sprintf "slot %d at jobs=%d" i jobs) (i * i) v)
        r)
    [ 1; 2; 4; 32 ]

let pool_more_jobs_than_tasks () =
  let r = Parallel.Pool.run_exn ~jobs:16 [| (fun () -> "only") |] in
  Alcotest.(check (array string)) "single task" [| "only" |] r

let pool_captures_exceptions () =
  let tasks =
    Array.init 8 (fun i ->
        fun () -> if i = 3 then failwith "boom" else i)
  in
  let r = Parallel.Pool.run ~jobs:4 tasks in
  Array.iteri
    (fun i outcome ->
      match (i, outcome) with
      | 3, Error (Failure msg) when msg = "boom" -> ()
      | 3, _ -> Alcotest.fail "slot 3 should hold the failure"
      | i, Ok v -> check_int "surviving slot" i v
      | _, Error _ -> Alcotest.fail "unexpected error slot")
    r;
  (match Parallel.Pool.run_exn ~jobs:4 tasks with
  | exception Failure msg -> Alcotest.(check string) "re-raised" "boom" msg
  | _ -> Alcotest.fail "run_exn should re-raise")

let pool_rejects_bad_jobs () =
  match Parallel.Pool.run ~jobs:0 [| (fun () -> ()) |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "jobs=0 should be rejected"

(* ---- Spsc ---- *)

(* Interleaved pushes and drains across many segments come out in push
   order, and the channel reads empty exactly when drained. *)
let spsc_fifo_across_segments () =
  let q = Parallel.Spsc.create () in
  check_bool "fresh channel empty" true (Parallel.Spsc.is_empty q);
  let next_in = ref 0 and next_out = ref 0 in
  let take v =
    check_int "FIFO order" !next_out v;
    incr next_out
  in
  List.iter
    (fun pushes ->
      for _ = 1 to pushes do
        Parallel.Spsc.push q !next_in;
        incr next_in
      done;
      check_bool "non-empty after a push" (pushes = 0) (Parallel.Spsc.is_empty q);
      Parallel.Spsc.drain q take;
      check_int "drained up to the last push" !next_in !next_out;
      check_bool "empty after a drain" true (Parallel.Spsc.is_empty q))
    [ 1; 255; 256; 700; 0; 1000; 2049 ];
  check_int "every message out" 4261 !next_out

(* One producer domain, one consumer domain: a million messages arrive
   complete and in order while the producer never waits. *)
let spsc_two_domains_in_order () =
  let n = 1_000_000 in
  let q = Parallel.Spsc.create () in
  let producer =
    Domain.spawn (fun () ->
        for i = 0 to n - 1 do
          Parallel.Spsc.push q i
        done)
  in
  let expected = ref 0 and out_of_order = ref 0 in
  let take v =
    if v <> !expected then incr out_of_order;
    incr expected
  in
  while !expected < n do
    Parallel.Spsc.drain q take;
    Domain.cpu_relax ()
  done;
  Domain.join producer;
  check_int "in order" 0 !out_of_order;
  check_bool "nothing left" true (Parallel.Spsc.is_empty q)

(* ---- RNG streams ---- *)

let rng_streams_are_pure () =
  let a = Sim.Rng.stream ~seed:42L 7 and b = Sim.Rng.stream ~seed:42L 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Sim.Rng.bits64 a) (Sim.Rng.bits64 b)
  done

let rng_streams_diverge () =
  let a = Sim.Rng.stream ~seed:42L 0 and b = Sim.Rng.stream ~seed:42L 1 in
  let matches = ref 0 in
  for _ = 1 to 64 do
    if Sim.Rng.bits64 a = Sim.Rng.bits64 b then incr matches
  done;
  check_int "distinct substreams" 0 !matches;
  check_bool "seed matters" false
    (Sim.Rng.stream_seed 1L 0 = Sim.Rng.stream_seed 2L 0)

(* ---- Telemetry.Merge ---- *)

let snap_of build =
  let reg = Reg.create () in
  build reg;
  Reg.snapshot reg

let merge_counters_and_gauges () =
  let s1 =
    snap_of (fun r ->
        Reg.Counter.add (Reg.counter r "c") 3;
        Reg.Counter.add (Reg.counter r ~labels:[ ("node", "1") ] "c") 10;
        Reg.Gauge.set (Reg.gauge r "g") 1.5)
  in
  let s2 =
    snap_of (fun r ->
        Reg.Counter.add (Reg.counter r "c") 4;
        Reg.Gauge.set (Reg.gauge r "g") 2.5;
        Reg.Counter.add (Reg.counter r ~labels:[ ("node", "2") ] "c") 20)
  in
  let merged = Telemetry.Merge.rows [ s1; s2 ] in
  check_int "unlabeled counter sums" 7
    (Telemetry.Merge.counter_value merged "c" ~labels:[]
    - Telemetry.Merge.counter_value merged "c" ~labels:[ ("node", "1") ]
    - Telemetry.Merge.counter_value merged "c" ~labels:[ ("node", "2") ]);
  check_int "label node=1 kept apart" 10
    (Telemetry.Merge.counter_value merged "c" ~labels:[ ("node", "1") ]);
  check_int "label node=2 kept apart" 20
    (Telemetry.Merge.counter_value merged "c" ~labels:[ ("node", "2") ]);
  let gauge_total =
    List.fold_left
      (fun acc (r : Reg.row) ->
        match r.Reg.row_sample with Reg.Gauge_sample v -> acc +. v | _ -> acc)
      0.0 merged
  in
  Alcotest.(check (float 1e-9)) "gauges sum" 4.0 gauge_total

let merge_hist_equals_single_hist () =
  let values1 = List.init 500 (fun i -> (i * 37 mod 91) * 13) in
  let values2 = List.init 300 (fun i -> ((i * 53 mod 211) * 977) + 5) in
  let snap values =
    snap_of (fun r ->
        let h = Reg.histogram r "lat" in
        List.iter (Reg.Hist.observe h) values)
  in
  let merged = Telemetry.Merge.rows [ snap values1; snap values2 ] in
  let all = snap (values1 @ values2) in
  check_bool "merged histogram == histogram of all samples" true (merged = all)

let merge_events_sorted_stably () =
  let ev node = Telemetry.Events.Router_restarted { node } in
  let w1 = [ (10, ev 1); (30, ev 2) ] in
  let w2 = [ (10, ev 3); (20, ev 4) ] in
  let merged = Telemetry.Merge.events [ w1; w2 ] in
  Alcotest.(check (list int))
    "time order, ties in world order" [ 10; 10; 20; 30 ]
    (List.map fst merged);
  match merged with
  | (_, Telemetry.Events.Router_restarted { node = 1 }) :: _ -> ()
  | _ -> Alcotest.fail "tie must keep first world's event first"

(* ---- Sweep determinism ---- *)

(* One world per grid point: a two-host link with a bit-error rate and a
   deliberately tiny output buffer, driven by a burst whose size and
   payloads come from the task's sweep stream. Returns enough to notice
   any scheduling leak: counts plus the full registry snapshot. *)
let sweep_cell ~rng ~ber =
  let g = G.create () in
  let a = G.add_node g G.Host and b = G.add_node g G.Host in
  ignore (G.connect g a b G.default_props);
  let link = List.hd (G.links g) in
  let engine = Sim.Engine.create () in
  let world = W.create engine g in
  W.set_bit_error_rate world ~link_id:link.G.link_id ber;
  W.set_buffer_bytes world ~node:a ~port:1 4096;
  let received = ref 0 in
  W.set_handler world b (fun _ ~in_port:_ ~frame:_ ~head:_ ~tail:_ -> incr received);
  let n = 40 + Sim.Rng.int rng 40 in
  for _ = 1 to n do
    let bytes = 64 + Sim.Rng.int rng 512 in
    ignore (W.send world ~node:a ~port:1 (W.fresh_frame world (Bytes.make bytes 'x')))
  done;
  Sim.Engine.run engine;
  let st = W.port_stats world ~node:a ~port:1 in
  (n, !received, st.W.dropped_overflow, Reg.snapshot (W.metrics world))

let run_sweep ~jobs =
  let grid = [| 0.0; 1e-5; 1e-4; 1e-3; 0.0; 1e-4 |] in
  Parallel.Sweep.map ~jobs ~seed:0xDE7E12817157L
    ~f:(fun ~rng ~index:_ ber -> sweep_cell ~rng ~ber)
    grid

let sweep_jobs_equivalence () =
  let r1, s1 = run_sweep ~jobs:1 in
  let r4, s4 = run_sweep ~jobs:4 in
  check_int "jobs echoed (serial)" 1 s1.Parallel.Sweep.jobs;
  check_int "jobs echoed (parallel)" 4 s4.Parallel.Sweep.jobs;
  check_int "same cell count" (Array.length r1) (Array.length r4);
  Array.iteri
    (fun i (n1, recv1, drop1, _) ->
      let n4, recv4, drop4, _ = r4.(i) in
      check_int (Printf.sprintf "cell %d sent" i) n1 n4;
      check_int (Printf.sprintf "cell %d received" i) recv1 recv4;
      check_int (Printf.sprintf "cell %d drops" i) drop1 drop4)
    r1;
  let snaps r = Array.to_list (Array.map (fun (_, _, _, s) -> s) r) in
  let m1 = Telemetry.Merge.rows (snaps r1) and m4 = Telemetry.Merge.rows (snaps r4) in
  check_bool "merged registry snapshots identical" true (m1 = m4);
  check_bool "some traffic flowed" true
    (Telemetry.Merge.counter_value m1 "netsim_sent_frames" > 0);
  check_bool "the tiny buffer dropped something" true
    (Telemetry.Merge.counter_value m1 "netsim_dropped_overflow" > 0);
  check_bool "corruption occurred at high BER" true
    (Telemetry.Merge.counter_value m1 "netsim_corrupted" > 0)

let sweep_stats_sane () =
  let _, s = run_sweep ~jobs:2 in
  check_int "task count" 6 s.Parallel.Sweep.tasks;
  check_int "per-task times" 6 (Array.length s.Parallel.Sweep.task_times_s);
  check_bool "wall clock advanced" true (s.Parallel.Sweep.wall_clock_s >= 0.0);
  check_bool "speedup positive" true (s.Parallel.Sweep.speedup_vs_serial > 0.0)

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "results in task order" `Quick pool_orders_results;
          Alcotest.test_case "more jobs than tasks" `Quick pool_more_jobs_than_tasks;
          Alcotest.test_case "exceptions captured per slot" `Quick pool_captures_exceptions;
          Alcotest.test_case "jobs=0 rejected" `Quick pool_rejects_bad_jobs;
        ] );
      ( "rng-streams",
        [
          Alcotest.test_case "pure in (seed, index)" `Quick rng_streams_are_pure;
          Alcotest.test_case "indices diverge" `Quick rng_streams_diverge;
        ] );
      ( "merge",
        [
          Alcotest.test_case "counters and gauges sum by label" `Quick
            merge_counters_and_gauges;
          Alcotest.test_case "histograms merge exactly" `Quick
            merge_hist_equals_single_hist;
          Alcotest.test_case "events sort stably by time" `Quick
            merge_events_sorted_stably;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "jobs=1 and jobs=4 merge identically" `Quick
            sweep_jobs_equivalence;
          Alcotest.test_case "stats are sane" `Quick sweep_stats_sane;
        ] );
      ( "spsc",
        [
          Alcotest.test_case "FIFO across segments" `Quick spsc_fifo_across_segments;
          Alcotest.test_case "two domains, in order" `Quick spsc_two_domains_in_order;
        ] );
    ]
