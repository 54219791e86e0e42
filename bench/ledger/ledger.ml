(* The repo benchmark. One workload per process:

     ledger.exe --workload NAME --seed N [--seconds S] [--trace 0|1]
                [--smoke] [--json FILE]

   --trace 0 runs a warm-up pass and then timed passes for S seconds
   (at least three) and reports the end-to-end metrics, each the median
   over the passes. --trace 1 runs the warm-up, one untraced and one
   traced pass and the isolated layer ops, and reports the per-layer
   metrics. Without --trace it does both. Every metric is printed as
   [name value unit], then a one-line JSON summary; a failed self-check
   prints which one and exits 1. *)

(* Per-layer metrics by name and unit, as BENCHMARK.json lists them. A
   workload that does not exercise a layer reports 0 for it. *)
let per_layer =
  [
    ("sirpent.router.handle_ns_per_frame", "ns");
    ("sirpent.router.handle_words_per_frame", "words");
    ("sirpent.host.send_ns_per_pkt", "ns");
    ("sirpent.host.send_words_per_pkt", "words");
    ("sim.engine.residual_ns_per_pkt", "ns");
    ("sim.engine.residual_words_per_pkt", "words");
    ("sim.engine.events_per_pkt", "count");
    ("sim.engine.pending_peak", "count");
    ("netsim.world.frames_per_pkt", "count");
    ("vmtp.entity.call_ns", "ns");
    ("trace.overhead_ratio", "ratio");
    ("ledger.coverage_ratio", "ratio");
    ("ledger.loss_ratio", "ratio");
  ]
  @ List.concat_map
      (fun op -> [ (op ^ "_ns", "ns"); (op ^ "_words", "words") ])
      Ops.names
  @ [
      ("netsim.shard.sync_rounds", "count");
      ("netsim.shard.null_messages", "count");
      ("netsim.shard.cross_frames", "count");
      ("netsim.shard.idle_round_ratio", "ratio");
      ("netsim.shard.parallel_efficiency", "ratio");
      ("netsim.shard.speedup", "ratio");
      ("vmtp.entity.retransmits_per_call", "count");
      ("vmtp.entity.calls_completed", "count");
      ("sirpent.router.malformed_drops", "count");
      ("netsim.world.overflow_drops", "count");
      ("sirpent.congestion.ctl_sent", "count");
      ("dirsvc.hit_ratio", "ratio");
      ("dirsvc.hit_ns_mean", "ns");
      ("dirsvc.miss_ns_mean", "ns");
      ("dirsvc.spt_builds", "count");
      ("dirsvc.words_per_query", "words");
    ]

type workload = {
  warmup : Pass.config -> unit;
  timed : Pass.config -> Pass.t;
  layers : Pass.config -> (string * float) list;
}

let fanin ~xsr =
  { warmup = Fanin.warmup ~xsr; timed = Fanin.timed ~xsr; layers = Fanin.layers ~xsr }

let workloads =
  [
    ("fanin_viper", fanin ~xsr:false);
    ("fanin_xsr", fanin ~xsr:true);
    ("regions", { warmup = Regions.warmup; timed = Regions.timed; layers = Regions.layers });
    ("dir_zipf", { warmup = Dir_zipf.warmup; timed = Dir_zipf.timed; layers = Dir_zipf.layers });
  ]

let layer_metrics measured =
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name per_layer) then
        Report.fail "workload reported unknown per-layer metric %s" name)
    measured;
  List.map
    (fun (name, unit_) ->
      Report.metric name unit_ (Option.value ~default:0.0 (List.assoc_opt name measured)))
    per_layer

let run w cfg ~trace =
  if not cfg.Pass.smoke then w.warmup cfg;
  let e2e, detail =
    if trace = Some 1 then ([], [])
    else
      let passes = Pass.repeat cfg (fun () -> w.timed cfg) in
      ( Pass.end_to_end passes,
        [ ("passes", Report.Int (List.length passes)); ("end_to_end", Pass.detail passes) ] )
  in
  let layers = if trace = Some 0 then [] else layer_metrics (w.layers cfg) in
  (e2e @ layers, detail)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref None and smoke = ref false and json = ref "" in
  let usage =
    "ledger.exe --workload NAME --seed N [--seconds S] [--trace 0|1] [--smoke] [--json FILE]"
  in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME fanin_viper | fanin_xsr | regions | dir_zipf");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S how long the timed passes run (default 10)");
      ( "--trace",
        Arg.Int
          (function
          | (0 | 1) as t -> trace := Some t
          | _ -> raise (Arg.Bad "--trace takes 0 or 1")),
        "0|1 end-to-end metrics only (0) or per-layer metrics only (1)" );
      ("--smoke", Arg.Set smoke, " tiny sizes, one pass: check outputs, measure nothing");
      ("--json", Arg.Set_string json, "FILE also write every metric and pass spread here");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let w =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None ->
      Printf.eprintf "unknown workload %S\n%s\n" !workload usage;
      exit 2
  in
  let cfg = { Pass.seed = !seed; seconds = !seconds; smoke = !smoke } in
  match run w cfg ~trace:!trace with
  | exception Report.Self_check msg ->
    Report.emit_failure msg;
    exit 1
  | metrics, detail -> (
    if !json <> "" then begin
      let oc = open_out !json in
      output_string oc
        (Report.to_string
           (Report.Obj
              ([
                 ("workload", Report.Str !workload);
                 ("seed", Report.Int !seed);
                 ("metrics", Report.metrics_json metrics);
               ]
              @ detail)));
      output_char oc '\n';
      close_out oc
    end;
    match Report.emit metrics with
    | () -> ()
    | exception Report.Self_check msg ->
      Report.emit_failure msg;
      exit 1)
