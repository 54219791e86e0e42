(* E18 — fault matrix: goodput and failover behavior of the hardened
   packet path under combined faults. The §6.3 claim is that end-to-end
   recovery (multiple directory routes + transport timeouts) plus
   soft-state-only routers make the architecture robust; this experiment
   quantifies it by sweeping bit-error rate and link-flap rate over the
   two-path topology of E7

       src -- r0 -- ra -- r3 -- dst
                \-- rb --/

   with the ra router additionally crashed (and restarted 1 s later)
   mid-run in every cell. A second table aims a fixed bit-error rate at
   each packet region separately, showing which layer of the hardened
   path absorbs the damage: the router drop scoreboard for headers, the
   trailer checksums (host-side rejection) for return routes, and the
   VMTP checksum for payload. *)

module G = Topo.Graph
module W = Netsim.World
module Router = Sirpent.Router

let pf = Printf.printf
let props = G.default_props

(* Smoke mode shrinks the run to 4 s; the crash always lands mid-run and
   the directory freeze covers the middle two fifths of the horizon. *)
let horizon () = Util.scaled ~full:(Sim.Time.s 10) ~smoke:(Sim.Time.s 4)
let crash_time () = horizon () / 2
let crash_down = Sim.Time.s 1
let send_interval = Sim.Time.ms 20
let req_bytes = 512

let build () =
  let g = G.create () in
  let src = G.add_node g G.Host and dst = G.add_node g G.Host in
  let r0 = G.add_node g G.Router in
  let ra = G.add_node g G.Router and rb = G.add_node g G.Router in
  let r3 = G.add_node g G.Router in
  ignore (G.connect g src r0 props);
  ignore (G.connect g r0 ra props);
  ignore (G.connect g r0 rb { props with G.propagation = Sim.Time.us 50 });
  ignore (G.connect g ra r3 props);
  ignore (G.connect g rb r3 { props with G.propagation = Sim.Time.us 50 });
  ignore (G.connect g r3 dst props);
  let link a b =
    List.find
      (fun (l : G.link) -> (l.G.a = a && l.G.b = b) || (l.G.a = b && l.G.b = a))
      (G.links g)
  in
  (g, src, dst, [ r0; ra; rb; r3 ], ra, [ link r0 ra; link ra r3 ], link ra r3)

type cell = {
  completed : int;
  failed : int;
  crash_gap : Sim.Time.t;  (** first reply after the crash - crash time *)
  corrupted : int;
  malformed_drops : int;  (** summed over routers *)
  stale : int;
  conservation : int;  (** {!W.conservation} once the engine ran dry *)
}

(* One simulation: BER on the primary (ra) trunk links, optional flapping
   of ra-r3, the ra router crashed mid-run, directory frozen over the
   middle of the run so mid-run route queries are served stale.

   [rng] is the cell's sweep stream: the injector seed derives from it, so
   a cell's fault schedule depends only on the sweep seed and its grid
   position — never on which domain runs it. *)
let run_cell ~rng ~ber ~flap =
  let horizon = horizon () and crash_time = crash_time () in
  let g, src, dst, router_nodes, ra, primary_links, flappy = build () in
  let engine = Sim.Engine.create () in
  let world = W.create engine g in
  let routers = List.map (fun n -> (n, Router.create world ~node:n ())) router_nodes in
  let h_src = Sirpent.Host.create world ~node:src in
  let h_dst = Sirpent.Host.create world ~node:dst in
  let dir = Dirsvc.Directory.create g in
  let name = Dirsvc.Name.of_string "x.dst" in
  Dirsvc.Directory.register dir ~name ~node:dst;
  let client = Vmtp.Entity.create h_src ~id:1L in
  let server = Vmtp.Entity.create h_dst ~id:2L in
  Vmtp.Entity.set_request_handler server (fun _ ~data:_ -> fun ~reply -> reply Bytes.empty);
  let inj = Faults.Injector.create ~seed:(Sim.Rng.bits64 rng) world in
  if ber > 0.0 then
    List.iter
      (fun l ->
        Faults.Injector.set_link_corruption inj ~link:l
          { Faults.Corrupt.ber; region = Faults.Corrupt.Any })
      primary_links;
  (match flap with
  | None -> ()
  | Some (mean_up, mean_down) ->
    Faults.Injector.flap_link inj ~start:(Sim.Time.ms 500)
      ~until:(horizon - Sim.Time.s 1) ~mean_up ~mean_down flappy);
  Faults.Injector.crash_router_at inj ~at:crash_time ~down_for:crash_down
    (List.assoc ra routers);
  Faults.Injector.freeze_directory_at inj ~at:(horizon / 5)
    ~thaw_after:(horizon * 2 / 5) dir;
  let completed = ref 0 and failed = ref 0 and first_after = ref 0 in
  let rec caller t =
    if t < horizon then
      Sim.Engine.schedule_at engine ~time:t (fun () ->
          let routes =
            Dirsvc.Directory.query dir ~client:src ~target:name ~k:2 ()
          in
          let sroutes = List.map (fun r -> r.Dirsvc.Directory.route) routes in
          Vmtp.Entity.call client ~server:2L ~routes:sroutes
            ~data:(Bytes.make req_bytes 'e')
            ~on_reply:(fun _ ~rtt:_ ->
              incr completed;
              let now = Sim.Engine.now engine in
              if now > crash_time && !first_after = 0 then first_after := now)
            ~on_fail:(fun _ -> incr failed)
            ();
          caller (t + send_interval))
  in
  caller (Sim.Time.ms 10);
  (* drain fully: the callers self-terminate, and the slowest
     failure ladders (exhausting retries across routes with backoff)
     must still resolve every transaction *)
  Sim.Engine.run engine;
  assert (W.total_handler_errors world = 0);
  let malformed =
    List.fold_left
      (fun acc (_, r) -> acc + (Router.stats r).Router.dropped_malformed)
      0 routers
  in
  ( {
      completed = !completed;
      failed = !failed;
      crash_gap =
        (if !first_after = 0 then horizon - crash_time else !first_after - crash_time);
      corrupted = (Faults.Injector.stats inj).Faults.Injector.frames_corrupted;
      malformed_drops = malformed;
      stale = Dirsvc.Directory.stale_served dir;
      conservation = W.conservation world;
    },
    Telemetry.Registry.snapshot (W.metrics world),
    Telemetry.Events.entries (W.events world) )

(* Region sweep: fixed BER aimed at one region of every frame on the
   src-r0 access link (requests only, before any fault diversity), single
   clean path so the counters isolate where each damage class lands. *)
let run_region ~rng ~region ~ber =
  let horizon = horizon () in
  let g = G.create () in
  let src = G.add_node g G.Host and dst = G.add_node g G.Host in
  let r = G.add_node g G.Router in
  ignore (G.connect g src r props);
  ignore (G.connect g r dst props);
  let engine = Sim.Engine.create () in
  let world = W.create engine g in
  let router = Router.create world ~node:r () in
  let h_src = Sirpent.Host.create world ~node:src in
  let h_dst = Sirpent.Host.create world ~node:dst in
  let dir = Dirsvc.Directory.create g in
  let name = Dirsvc.Name.of_string "x.dst" in
  Dirsvc.Directory.register dir ~name ~node:dst;
  let client = Vmtp.Entity.create h_src ~id:1L in
  let server = Vmtp.Entity.create h_dst ~id:2L in
  Vmtp.Entity.set_request_handler server (fun _ ~data:_ -> fun ~reply -> reply Bytes.empty);
  let inj = Faults.Injector.create ~seed:(Sim.Rng.bits64 rng) world in
  List.iter
    (fun (l : G.link) ->
      Faults.Injector.set_link_corruption inj ~link:l { Faults.Corrupt.ber; region })
    (G.links g);
  let completed = ref 0 and failed = ref 0 in
  let rec caller t =
    if t < horizon then
      Sim.Engine.schedule_at engine ~time:t (fun () ->
          let routes = Dirsvc.Directory.query dir ~client:src ~target:name () in
          let sroutes = List.map (fun r -> r.Dirsvc.Directory.route) routes in
          Vmtp.Entity.call client ~server:2L ~routes:sroutes
            ~data:(Bytes.make req_bytes 'e')
            ~on_reply:(fun _ ~rtt:_ -> incr completed)
            ~on_fail:(fun _ -> incr failed)
            ();
          caller (t + send_interval))
  in
  caller (Sim.Time.ms 10);
  (* drain fully: the callers self-terminate, and the slowest
     failure ladders (exhausting retries across routes with backoff)
     must still resolve every transaction *)
  Sim.Engine.run engine;
  assert (W.total_handler_errors world = 0);
  let rst = Router.stats router in
  let cst = Vmtp.Entity.stats client and sst = Vmtp.Entity.stats server in
  ( ( !completed,
      !failed,
      (Faults.Injector.stats inj).Faults.Injector.frames_corrupted,
      rst.Router.dropped_malformed,
      Sirpent.Host.misdelivered h_src + Sirpent.Host.misdelivered h_dst,
      cst.Vmtp.Entity.rejected_checksum + sst.Vmtp.Entity.rejected_checksum,
      cst.Vmtp.Entity.retransmits ),
    W.conservation world )

let flap_name = function
  | None -> "none"
  | Some (up, down) ->
    Printf.sprintf "%.0f/%.0fms" (Sim.Time.to_ms up) (Sim.Time.to_ms down)

let run () =
  Util.heading "E18 fault matrix: goodput under corruption, flapping and crashes";
  let horizon = horizon () and crash_time = crash_time () in
  pf "src-r0-(ra|rb)-r3-dst; BER on the ra trunk links, ra-r3 flapping,\n";
  pf "ra crashed at %.0f s for 1 s, directory frozen %.1f-%.1f s; 50 req/s for %.0f s.\n"
    (Sim.Time.to_seconds crash_time)
    (Sim.Time.to_seconds (horizon / 5))
    (Sim.Time.to_seconds (horizon * 3 / 5))
    (Sim.Time.to_seconds horizon);
  pf "Every transaction must complete via failover or fail cleanly.\n\n";
  let attempted =
    (Sim.Time.to_ms horizon -. 10.0) /. Sim.Time.to_ms send_interval
    |> ceil |> int_of_float
  in
  let bers = Util.scaled ~full:[ 0.0; 1e-6; 1e-5; 1e-4 ] ~smoke:[ 0.0; 1e-4 ] in
  let flaps =
    Util.scaled
      ~full:
        [
          None;
          Some (Sim.Time.s 2, Sim.Time.ms 200);
          Some (Sim.Time.ms 500, Sim.Time.ms 200);
        ]
      ~smoke:[ None; Some (Sim.Time.ms 500, Sim.Time.ms 200) ]
  in
  (* The matrix is embarrassingly parallel: one world per (BER, flap)
     cell, sharded over the domain pool. Cell seeds come from the sweep
     streams, so the merged matrix is identical for every --jobs. *)
  let grid =
    List.concat_map (fun ber -> List.map (fun flap -> (ber, flap)) flaps) bers
  in
  let cells, sw =
    Util.sweep grid ~f:(fun ~rng ~index:_ (ber, flap) ->
        ((ber, flap), run_cell ~rng ~ber ~flap))
  in
  let merged_rows =
    Telemetry.Merge.rows (Array.to_list (Array.map (fun (_, (_, snap, _)) -> snap) cells))
  in
  let merged_events =
    Telemetry.Merge.events (Array.to_list (Array.map (fun (_, (_, _, ev)) -> ev) cells))
  in
  let json_cells = ref [] in
  let rows =
    Array.to_list cells
    |> List.map (fun ((ber, flap), (c, _, _)) ->
           assert (c.completed + c.failed = attempted);
           json_cells :=
             Util.J.Obj
               [
                 ("ber", Util.J.Float ber);
                 ("flap", Util.J.String (flap_name flap));
                 ("completed", Util.J.Int c.completed);
                 ("failed", Util.J.Int c.failed);
                 ("crash_gap_ms", Util.J.Float (Sim.Time.to_ms c.crash_gap));
                 ("corrupted", Util.J.Int c.corrupted);
                 ("malformed_drops", Util.J.Int c.malformed_drops);
                 ("stale_served", Util.J.Int c.stale);
               ]
             :: !json_cells;
           [
             Printf.sprintf "%.0e" ber;
             flap_name flap;
             Util.i c.completed;
             Util.i c.failed;
             Util.f1 (float_of_int c.completed /. Sim.Time.to_seconds horizon);
             Util.ms c.crash_gap;
             Util.i c.corrupted;
             Util.i c.malformed_drops;
             Util.i c.stale;
           ])
  in
  Util.table
    ~header:
      [
        "BER"; "flap up/down"; "ok"; "fail"; "goodput (req/s)"; "crash gap (ms)";
        "corrupt"; "malformed"; "stale";
      ]
    rows;
  pf "\npaper check: goodput degrades smoothly with BER and flap rate; the\n";
  pf "crash gap stays within a few client retransmission timeouts because the\n";
  pf "second directory route bypasses the dead router (\xc2\xa76.3), even while the\n";
  pf "frozen directory is replaying stale routes.\n";

  Util.subheading "region-aimed corruption (BER 1e-4 on every link, one clean path)";
  let region_grid =
    [
      ("header", Faults.Corrupt.Header);
      ("payload", Faults.Corrupt.Payload);
      ("trailer", Faults.Corrupt.Trailer);
      ("any", Faults.Corrupt.Any);
    ]
  in
  let region_cells, _ =
    Util.sweep region_grid ~f:(fun ~rng ~index:_ (label, region) ->
        (label, run_region ~rng ~region ~ber:1e-4))
  in
  let json_regions = ref [] in
  let rows =
    Array.to_list region_cells
    |> List.map
      (fun (label, ((ok, fail, corrupted, malformed, misdelivered, cksum, retx), _)) ->
        json_regions :=
          Util.J.Obj
            [
              ("region", Util.J.String label);
              ("completed", Util.J.Int ok);
              ("failed", Util.J.Int fail);
              ("corrupted", Util.J.Int corrupted);
              ("router_malformed", Util.J.Int malformed);
              ("host_rejected", Util.J.Int misdelivered);
              ("vmtp_checksum", Util.J.Int cksum);
              ("retransmits", Util.J.Int retx);
            ]
          :: !json_regions;
        [
          label; Util.i ok; Util.i fail; Util.i corrupted; Util.i malformed;
          Util.i misdelivered; Util.i cksum; Util.i retx;
        ])
  in
  Util.table
    ~header:
      [
        "region"; "ok"; "fail"; "corrupt"; "router malformed"; "host rejected";
        "vmtp cksum"; "retransmits";
      ]
    rows;
  pf "\npaper check: each damage class is absorbed by its own layer — headers\n";
  pf "die at the router scoreboard, damaged trailers are refused by the\n";
  pf "receiving host (never a bogus return route), payload damage reaches the\n";
  pf "transport checksum; all of it is repaired by VMTP retransmission.\n";
  (* every packet of every world ended delivered or with a fate *)
  let conservation =
    Array.fold_left (fun acc (_, (c, _, _)) -> acc + abs c.conservation) 0 cells
    + Array.fold_left (fun acc (_, (_, c)) -> acc + abs c) 0 region_cells
  in
  if conservation <> 0 then
    failwith
      (Printf.sprintf "e18: %d packets neither delivered nor given a fate" conservation);
  let mc name = Util.J.Int (Telemetry.Merge.counter_value merged_rows name) in
  Util.write_json ~exp:"e18"
    (Util.J.Obj
       ([
          ("experiment", Util.J.String "e18");
          ("description", Util.J.String "fault matrix: corruption, flapping, crashes");
          ("horizon_s", Util.J.Float (Sim.Time.to_seconds horizon));
          ("crash_time_s", Util.J.Float (Sim.Time.to_seconds crash_time));
          ("matrix", Util.J.List (List.rev !json_cells));
          ("regions", Util.J.List (List.rev !json_regions));
          ("conservation", Util.J.Int conservation);
          (* Matrix-wide telemetry folded from the per-world registries and
             event rings by Telemetry.Merge — identical for every --jobs. *)
          ( "merged",
            Util.J.Obj
              [
                ("netsim_sent_frames", mc "netsim_sent_frames");
                ("netsim_corrupted", mc "netsim_corrupted");
                ("netsim_purged", mc "netsim_purged");
                ("netsim_dropped_overflow", mc "netsim_dropped_overflow");
                ("events", Util.J.Int (List.length merged_events));
              ] );
        ]
       @ Util.sweep_fields sw))
