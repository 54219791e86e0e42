(* Benchmark harness: regenerates every table/figure of the paper's
   evaluation (see DESIGN.md's experiment index and EXPERIMENTS.md for
   paper-vs-measured).

     dune exec bench/main.exe            # all experiments
     dune exec bench/main.exe e2 e7      # a subset
     dune exec bench/main.exe -- --micro # bechamel micro-benchmarks only
     dune exec bench/main.exe -- --list  # experiment ids

   Modes (combine freely with experiment ids):

     --smoke   shrunk parameter grids for CI-speed runs
     --json    wired experiments (e2, e6, e12, e18, e19, e20, e21, e22, e23)
               also write BENCH_<exp>.json with machine-readable results
     --jobs n  domain-pool width for grid-shaped experiments (e6, e12,
               e18, e19, e21, e22); default = recommended domain count, 1 = the
               serial path. Same seed => identical merged results for
               every n.
     --shards n  widest width for E20's region-parallel cluster
               (default 4). Any n produces telemetry bit-identical to
               the serial run; only wall clock changes. *)

let experiments =
  [
    ("e1", "Figure 1: VIPER header segment wire format", E01_figure1.run);
    ("e2", "\xc2\xa76.1 switching delay: cut-through vs S&F vs IP", E02_switching_delay.run);
    ("e3", "\xc2\xa76.1 M/D/1 output-queue validation", E03_md1_queue.run);
    ("e4", "\xc2\xa76.2 header overhead (paper worked example)", E04_header_overhead.run);
    ("e5", "\xc2\xa76.2 overhead sensitivity sweep", E05_overhead_sweep.run);
    ("e6", "\xc2\xa72.2 rate-based congestion control", E06_congestion.run);
    ("e7", "\xc2\xa76.3 link-failure response", E07_failover.run);
    ("e8", "\xc2\xa72.2 logical links / replicated trunks", E08_logical_links.run);
    ("e9", "\xc2\xa71 CVC vs datagram comparison", E09_cvc_compare.run);
    ("e10", "\xc2\xa72.2 token cache and accounting", E10_tokens.run);
    ("e11", "\xc2\xa74.2 packet lifetime: timestamp vs TTL", E11_mpl.run);
    ("e12", "\xc2\xa72.3 scalability of router state", E12_scalability.run);
    ("e13", "\xc2\xa75 priority and preemption", E13_preemption.run);
    ("e14", "\xc2\xa72 return-route construction", E14_return_route.run);
    ("e15", "\xc2\xa72.3 Sirpent over IP interoperation", E15_interop.run);
    ("e16", "ablation: blocked-packet handling", E16_blocked_ablation.run);
    ("e17", "ablation: directory-client caching", E17_directory_cache.run);
    ("e18", "fault matrix: corruption, flapping, crashes", E18_fault_matrix.run);
    ("e19", "telemetry: hop-latency breakdown and overhead", E19_telemetry.run);
    ( "e20",
      "intra-world multicore: region-parallel conservative simulation",
      E20_intra_world.run );
    ( "e21",
      "\xc2\xa73 directory at scale: interned names, SPT memo, zipf queries",
      E21_directory_scale.run );
    ( "e22",
      "\xc2\xa72.2 adversarial congestion: (w,\xcf\x81) worst case + auto-tuner",
      E22_adversarial.run );
    ( "e23",
      "policy compiler: intents -> routes, in-header failover DAG",
      E23_policy.run );
    ( "e24",
      "wire-speed path: VIPER source routes vs XSR constant headers",
      E24_saturation.run );
    ( "e25",
      "load-adaptive shard re-balancing + per-edge lookahead",
      E25_rebalance.run );
  ]

let list_experiments () =
  Printf.printf "experiments:\n";
  List.iter (fun (id, desc, _) -> Printf.printf "  %-4s %s\n" id desc) experiments;
  Printf.printf "  %-4s %s\n" "--micro" "bechamel micro-benchmarks";
  Printf.printf "  %-4s %s\n" "--smoke" "shrunk parameter grids (CI)";
  Printf.printf "  %-4s %s\n" "--json" "also write BENCH_<exp>.json (e2 e6 e12 e18 e19 e20 e21 e22 e23)";
  Printf.printf "  %-4s %s\n" "--jobs n" "domain-pool width for sweeps (1 = serial)";
  Printf.printf "  %-4s %s\n" "--shards n" "widest width for e20's region-parallel cluster";
  Printf.printf "  %-4s %s\n" "--rebalance"
    "epoch-based load re-balancing in e20 (telemetry unchanged)";
  Printf.printf "  %-4s %s\n" "--xsr" "e24: only the XSR constant-header arm"

let run_one id =
  match List.find_opt (fun (eid, _, _) -> eid = id) experiments with
  | Some (_, _, f) -> f ()
  | None ->
    Printf.eprintf "unknown experiment %S\n" id;
    list_experiments ();
    exit 1

let width_value ~flag raw =
  match int_of_string_opt raw with
  | Some n when n >= 1 -> n
  | Some _ | None ->
    Printf.eprintf "%s expects a positive integer, got %S\n" flag raw;
    exit 1

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec parse flags ids = function
    | [] -> (List.rev flags, List.rev ids)
    | "--jobs" :: n :: rest ->
      Util.jobs := width_value ~flag:"--jobs" n;
      parse flags ids rest
    | "--jobs" :: [] ->
      Printf.eprintf "--jobs expects an argument\n";
      exit 1
    | a :: rest when String.length a > 7 && String.sub a 0 7 = "--jobs=" ->
      Util.jobs := width_value ~flag:"--jobs" (String.sub a 7 (String.length a - 7));
      parse flags ids rest
    | "--shards" :: n :: rest ->
      Util.shards := width_value ~flag:"--shards" n;
      parse flags ids rest
    | "--shards" :: [] ->
      Printf.eprintf "--shards expects an argument\n";
      exit 1
    | a :: rest when String.length a > 9 && String.sub a 0 9 = "--shards=" ->
      Util.shards := width_value ~flag:"--shards" (String.sub a 9 (String.length a - 9));
      parse flags ids rest
    | (("--smoke" | "--json" | "--list" | "--micro" | "--rebalance" | "--xsr") as f)
      :: rest ->
      (match f with
      | "--smoke" -> Util.smoke_mode := true
      | "--json" -> Util.json_mode := true
      | "--rebalance" -> Util.rebalance := true
      | "--xsr" -> Util.xsr := true
      | _ -> ());
      parse (f :: flags) ids rest
    | f :: _ when String.length f >= 2 && String.sub f 0 2 = "--" ->
      Printf.eprintf "unknown flag %S\n" f;
      list_experiments ();
      exit 1
    | id :: rest -> parse flags (id :: ids) rest
  in
  let flags, ids = parse [] [] args in
  if List.mem "--list" flags then list_experiments ()
  else if List.mem "--micro" flags then Micro.run ()
  else
    match ids with
    | [] ->
      List.iter (fun (_, _, f) -> f ()) experiments;
      if not !Util.smoke_mode then Micro.run ()
    | ids -> List.iter run_one ids
