(* Unit tests for the rate-based congestion controller (§2.2): token-bucket
   limiters, soft-state expiry and ramp-up, backlog accounting, and the
   monitor's feeder signalling. *)

module G = Topo.Graph
module W = Netsim.World
module C = Sirpent.Congestion

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* two routers and a host feeder, for a world the controller can live in *)
let world () =
  let g = G.create () in
  let feeder = G.add_node g G.Host in
  let r1 = G.add_node g G.Router and r2 = G.add_node g G.Router in
  ignore (G.connect g feeder r1 G.default_props) (* r1 port 1 *);
  let trunk = fst (G.connect g r1 r2 G.default_props) (* r1 port 2 *) in
  let engine = Sim.Engine.create () in
  let world = W.create engine g in
  (g, engine, world, feeder, r1, trunk)

let config = C.default_config

(* A frame of [bytes] bytes (at least a segment's 4) bound for
   [next_port] at the next router: a lone VIPER segment naming it, then
   padding. *)
let frame w ~next_port bytes =
  let seg = Viper.Segment.encode (Viper.Segment.make ~port:next_port ()) in
  let b = Bytes.make (max bytes (Bytes.length seg)) '\000' in
  Bytes.blit seg 0 b 0 (Bytes.length seg);
  W.fresh_frame w b

(* A departing frame through the limiter: sent now if admitted, else
   held until the bucket allows it. *)
let submit c ~out_port frame ~send =
  if C.admit c ~out_port frame then send () else C.hold c ~out_port frame ~send

let unlimited_passes_through () =
  let _, _, w, _, r1, _ = world () in
  let c = C.create w ~node:r1 config in
  let sent = ref 0 in
  submit c ~out_port:2 (frame w ~next_port:3 1000) ~send:(fun () -> incr sent);
  check_int "immediate" 1 !sent;
  check_int "no backlog" 0 (C.backlog c)

let limiter_paces_to_rate () =
  (* monitor not started: pure token-bucket behavior, no ramp *)
  let _, engine, w, _, r1, _ = world () in
  let c = C.create w ~node:r1 config in
  (* 80 kb/s = one 1000-byte packet per 100 ms *)
  C.handle_ctl c ~arrival_port:1 ~congested_port:3 ~rate_bps:80_000.0;
  check_int "limiter installed" 1 (C.limiters c);
  let sent_times = ref [] in
  for _ = 1 to 3 do
    submit c ~out_port:1 (frame w ~next_port:3 1000) ~send:(fun () ->
        sent_times := Sim.Engine.now engine :: !sent_times)
  done;
  check_bool "some held" true (C.backlog c > 0);
  Sim.Engine.run ~until:(Sim.Time.ms 500) engine;
  check_int "all released eventually" 3 (List.length !sent_times);
  (* spacing between releases ~ 100 ms at 80 kb/s *)
  (match List.rev !sent_times with
  | t1 :: t2 :: _ ->
    check_bool "paced spacing >= 50 ms" true (t2 - t1 >= Sim.Time.ms 50)
  | _ -> Alcotest.fail "expected releases");
  check_int "drained" 0 (C.backlog c)

(* The limiter reads its key from either codec's header: a VIPER
   packet's leading port, an XSR packet's next lane. *)
let limiter_key_is_exact () =
  let _, _, w, _, r1, _ = world () in
  let c = C.create w ~node:r1 config in
  C.handle_ctl c ~arrival_port:1 ~congested_port:3 ~rate_bps:1.0;
  (* a limiter on key -1 too: bytes no router can read still pass *)
  C.handle_ctl c ~arrival_port:1 ~congested_port:(-1) ~rate_bps:1.0;
  let data = Bytes.make 100 'd' in
  let viper port =
    W.fresh_frame w
      (Viper.Packet.build
         ~route:[ Viper.Segment.make ~port (); Viper.Segment.make ~port:0 () ]
         ~data)
  in
  let xsr port = W.fresh_frame w (Viper.Xsr.encode ~ports:[ port; 2 ] ~data ()) in
  let sent = ref 0 in
  let send () = incr sent in
  submit c ~out_port:1 (viper 3) ~send;
  check_int "VIPER leading port 3 held" 1 (C.backlog c);
  submit c ~out_port:1 (xsr 3) ~send;
  check_int "XSR next lane 3 held" 2 (C.backlog c);
  (* bound for another next port or out port: unthrottled *)
  submit c ~out_port:1 (frame w ~next_port:4 100_000) ~send;
  submit c ~out_port:1 (viper 4) ~send;
  submit c ~out_port:1 (xsr 4) ~send;
  submit c ~out_port:2 (viper 3) ~send;
  (* no readable next port: unthrottled *)
  submit c ~out_port:1 (W.fresh_frame w (Bytes.make 1 '\003')) ~send;
  check_int "all five bypass" 5 !sent;
  check_int "still two held" 2 (C.backlog c)

(* The limiter keys at the edges of their range are six distinct
   limiters: -1 on the next-port side, 255 and 0 on either side, and a
   pair in both orders. Each holds its own frame, and a crash returns
   each held frame once. *)
let limiter_keys_at_the_edges () =
  let _, _, w, _, r1, _ = world () in
  let c = C.create w ~node:r1 config in
  let keys = [ (1, -1); (2, -1); (0, 255); (255, 0); (1, 2); (2, 1) ] in
  List.iter
    (fun (arrival_port, congested_port) ->
      C.handle_ctl c ~arrival_port ~congested_port ~rate_bps:1.0)
    keys;
  check_int "six limiters" 6 (C.limiters c);
  List.iter
    (fun (out_port, next_port) ->
      check_bool
        (Printf.sprintf "bucket (%d, %d)" out_port next_port)
        true
        (C.bucket_level c ~out_port ~next_port <> None))
    keys;
  check_bool "no bucket (2, 2)" true (C.bucket_level c ~out_port:2 ~next_port:2 = None);
  let held =
    List.map
      (fun (out_port, next_port) ->
        let f =
          if next_port < 0 then W.fresh_frame w (Bytes.make 1 '\003')
          else frame w ~next_port 100
        in
        C.hold c ~out_port f ~send:(fun () -> Alcotest.fail "sent at 1 b/s");
        f)
      keys
  in
  check_int "six held" 6 (C.backlog c);
  let returned = C.reset c in
  check_int "six returned" 6 (List.length returned);
  List.iter
    (fun f ->
      check_int "returned once" 1 (List.length (List.filter (fun g -> g == f) returned)))
    held;
  List.iter
    (fun (arrival_port, congested_port) ->
      match C.handle_ctl c ~arrival_port ~congested_port ~rate_bps:1.0 with
      | () -> Alcotest.failf "key (%d, %d) accepted" arrival_port congested_port
      | exception Invalid_argument _ -> ())
    [ (-2, 1); (1, -2); (256, 1); (1, 256) ]

let limiter_expires_as_soft_state () =
  let _, engine, w, _, r1, _ = world () in
  let c = C.create w ~node:r1 config in
  C.start c;
  C.handle_ctl c ~arrival_port:1 ~congested_port:3 ~rate_bps:1000.0;
  check_int "installed" 1 (C.limiters c);
  (* no refresh: after limiter_expiry (100 ms) + a tick it must vanish *)
  Sim.Engine.run ~until:(config.C.limiter_expiry + (4 * C.check_interval)) engine;
  check_int "expired" 0 (C.limiters c)

let ramp_raises_rate () =
  let _, engine, w, _, r1, _ = world () in
  let c = C.create w ~node:r1 config in
  C.start c;
  (* very slow limiter holding one packet; with a held packet it cannot
     expire, and each quiet interval multiplies its rate *)
  C.handle_ctl c ~arrival_port:1 ~congested_port:3 ~rate_bps:8_000.0;
  let sent_at = ref 0 in
  (* a second packet behind a first: 2000 B at 8 kb/s would take ~2 s flat *)
  submit c ~out_port:1 (frame w ~next_port:3 1000) ~send:(fun () -> ());
  submit c ~out_port:1 (frame w ~next_port:3 1000) ~send:(fun () ->
      sent_at := Sim.Engine.now engine);
  Sim.Engine.run ~until:(Sim.Time.s 3) engine;
  check_bool "released" true (!sent_at > 0);
  (* the multiplicative ramp (1.25 per 5 ms) releases it far sooner than
     the flat 2 s *)
  check_bool "ramp accelerated the drain" true (!sent_at < Sim.Time.s 1)

let monitor_signals_feeders () =
  let _, engine, w, feeder, r1, trunk = world () in
  let c = C.create w ~node:r1 config in
  C.start c;
  (* the feeder host records control messages it receives *)
  let got_rate = ref None in
  W.set_handler w feeder (fun _ ~in_port:_ ~frame ~head:_ ~tail:_ ->
      match frame.Netsim.Frame.meta with
      | Some (C.Rate_ctl { congested_port; rate_bps }) ->
        got_rate := Some (congested_port, rate_bps)
      | _ -> ());
  (* fill the trunk queue well past the threshold: it drains at ~1.25
     packets/ms, so survive until the first 5 ms monitor tick *)
  for _ = 1 to 30 do
    ignore (W.send w ~node:r1 ~port:trunk (W.fresh_frame w (Bytes.make 1000 'q')));
    C.note_arrival c ~in_port:1 ~out_port:trunk
  done;
  Sim.Engine.run ~until:(2 * C.check_interval) engine;
  match !got_rate with
  | None -> Alcotest.fail "feeder never signalled"
  | Some (port, rate) ->
    check_int "names the congested port" trunk port;
    (* single feeder: advertised rate = capacity * share *)
    check_bool "rate = capacity x share" true
      (abs_float (rate -. (1e7 *. config.C.feeder_share)) < 1.0)

let monitor_quiet_when_uncongested () =
  let _, engine, w, feeder, r1, trunk = world () in
  let c = C.create w ~node:r1 config in
  C.start c;
  let signalled = ref false in
  W.set_handler w feeder (fun _ ~in_port:_ ~frame ~head:_ ~tail:_ ->
      match frame.Netsim.Frame.meta with
      | Some (C.Rate_ctl _) -> signalled := true
      | _ -> ());
  (* below threshold: a couple of queued packets *)
  for _ = 1 to 2 do
    ignore (W.send w ~node:r1 ~port:trunk (W.fresh_frame w (Bytes.make 1000 'q')));
    C.note_arrival c ~in_port:1 ~out_port:trunk
  done;
  Sim.Engine.run ~until:(4 * C.check_interval) engine;
  check_bool "no signal below threshold" false !signalled;
  check_int "no ctl sent" 0 (C.ctl_sent c)

let idle_controller_drains_event_queue () =
  (* regression: an idle monitor must not keep the simulation alive *)
  let _, engine, w, _, r1, _ = world () in
  let c = C.create w ~node:r1 config in
  C.start c;
  C.note_arrival c ~in_port:1 ~out_port:2;
  (* unbounded run must terminate: the queue drains, and the run stops
     on its own, before the event cap does *)
  let max_events = 100_000 in
  let before = Sim.Engine.executed engine in
  Sim.Engine.run ~max_events engine;
  check_int "drained" 0 (Sim.Engine.pending engine);
  check_bool "stopped before the cap" true (Sim.Engine.executed engine - before < max_events)

(* --- E22 hardening: hysteresis, ramp clamp, ramp patience, flaps --- *)

let ctl_after_burst cfg =
  let _, engine, w, _, r1, trunk = world () in
  let c = C.create w ~node:r1 cfg in
  C.start c;
  for _ = 1 to 30 do
    ignore (W.send w ~node:r1 ~port:trunk (W.fresh_frame w (Bytes.make 1000 'q')));
    C.note_arrival c ~in_port:1 ~out_port:trunk
  done;
  Sim.Engine.run ~until:(Sim.Time.ms 40) engine;
  C.ctl_sent c

let hysteresis_refreshes_until_drained () =
  (* 30 queued packets drain at ~1.25/ms; the 5 ms ticks see depths of
     roughly 24, 17, 11, 5, 0. Without hysteresis the refreshes stop the
     moment the depth dips under the threshold (8); with
     release_threshold 0 the feeder keeps being refreshed until the queue
     has genuinely emptied. *)
  let no_hyst =
    ctl_after_burst { config with C.release_threshold = config.C.queue_threshold }
  in
  let hyst = ctl_after_burst { config with C.release_threshold = 0 } in
  check_bool "hysteresis refreshes longer" true (hyst > no_hyst)

let ramp_clamp_caps_at_line_rate () =
  let _, engine, w, _, r1, _ = world () in
  (* default config: max_rate_factor = 1.0 *)
  let c = C.create w ~node:r1 config in
  C.start c;
  C.handle_ctl c ~arrival_port:1 ~congested_port:3 ~rate_bps:1e6;
  (* ~200 ms of quiet ramping: unclamped that is 1e6 x 1.25^37 (gigabits);
     the clamp pins the rate at the out link's 10 Mb/s *)
  Sim.Engine.run ~until:(Sim.Time.ms 200) engine;
  match C.bucket_level c ~out_port:1 ~next_port:3 with
  | None -> Alcotest.fail "limiter expired early"
  | Some (bucket, cap) ->
    check_bool "bucket <= cap" true (bucket <= cap +. 1e-9);
    check_bool "cap = line rate x burst window" true
      (abs_float (cap -. (1e7 *. C.burst_window_s)) < 1.0)

let unclamped_ramp_blows_past_line_rate () =
  let _, engine, w, _, r1, _ = world () in
  let c = C.create w ~node:r1 { config with C.max_rate_factor = infinity } in
  C.start c;
  C.handle_ctl c ~arrival_port:1 ~congested_port:3 ~rate_bps:1e6;
  Sim.Engine.run ~until:(Sim.Time.ms 200) engine;
  match C.bucket_level c ~out_port:1 ~next_port:3 with
  | None -> Alcotest.fail "limiter expired early"
  | Some (_, cap) ->
    check_bool "seed behaviour ramps far past line rate" true
      (cap > 10.0 *. 1e7 *. C.burst_window_s)

let refreshes_hold_the_rate () =
  (* a limiter refreshed every 12 ms: with ramp_after = 15 ms the quiet
     spells between refreshes never qualify, so the rate holds at the
     advertised 6 Mb/s; at the seed's ramp_after = check_interval the
     same refresh pattern leaks ramp-ups between the very signals meant
     to hold the rate down *)
  let run ramp_after =
    let _, engine, w, _, r1, _ = world () in
    let c = C.create w ~node:r1 { config with C.ramp_after } in
    C.start c;
    let rec refresh t =
      if t < Sim.Time.ms 80 then
        Sim.Engine.schedule_at engine ~time:t (fun () ->
            C.handle_ctl c ~arrival_port:1 ~congested_port:3 ~rate_bps:6e6;
            refresh (t + Sim.Time.ms 12))
    in
    refresh 0;
    (* last refresh at 72 ms; observe at 86 ms, 14 ms into the quiet *)
    Sim.Engine.run ~until:(Sim.Time.ms 86) engine;
    match C.bucket_level c ~out_port:1 ~next_port:3 with
    | None -> Alcotest.fail "limiter missing"
    | Some (_, cap) -> cap
  in
  let patient = run (Sim.Time.ms 15) in
  let eager = run C.check_interval in
  check_bool "patient limiter holds the advertised rate" true
    (abs_float (patient -. (6e6 *. C.burst_window_s)) < 1.0);
  check_bool "seed behaviour ramps between refreshes" true (eager > patient +. 1.0)

let flap_counted_across_quiescence () =
  (* a host's monitor goes quiescent right after its only limiter expires
     (its windows are empty); the expiry must still count as an
     oscillation when the next signal reinstalls the limiter within
     flap_window *)
  let _, engine, w, _, r1, _ = world () in
  let c = C.create w ~node:r1 config in
  C.start c;
  C.handle_ctl c ~arrival_port:1 ~congested_port:3 ~rate_bps:1e6;
  let reinstall_at = config.C.limiter_expiry + (4 * C.check_interval) in
  Sim.Engine.schedule_at engine ~time:reinstall_at (fun () ->
      check_int "expired before reinstall" 0 (C.limiters c);
      C.handle_ctl c ~arrival_port:1 ~congested_port:3 ~rate_bps:1e6);
  Sim.Engine.run ~until:(reinstall_at + C.check_interval) engine;
  check_int "reinstalled" 1 (C.limiters c);
  check_int "flap counted" 1 (C.oscillations c)

let refresh_reevaluates_waiting_drain () =
  (* monitor off, so no ramp: a packet held behind an 80 b/s rate would
     wait 100 s; a refresh raising the rate must cancel that stale
     schedule rather than let the packet over-wait on it *)
  let _, engine, w, _, r1, _ = world () in
  let c = C.create w ~node:r1 config in
  C.handle_ctl c ~arrival_port:1 ~congested_port:3 ~rate_bps:80.0;
  let sent_at = ref None in
  submit c ~out_port:1 (frame w ~next_port:3 1000) ~send:(fun () ->
      sent_at := Some (Sim.Engine.now engine));
  Sim.Engine.schedule_at engine ~time:(Sim.Time.ms 1) (fun () ->
      C.handle_ctl c ~arrival_port:1 ~congested_port:3 ~rate_bps:8e6);
  Sim.Engine.run ~until:(Sim.Time.s 2) engine;
  match !sent_at with
  | None -> Alcotest.fail "held packet never released"
  | Some t ->
    check_bool "released at the refreshed rate, not the stale wait" true
      (t < Sim.Time.ms 10)

(* Words per call over [n] calls of [f], after one to warm it up. *)
let words_per_call n f =
  f ();
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

(* The per-frame calls allocate nothing: the tables are keyed by one
   int and a limiter's float state is updated in place. *)
let per_frame_calls_allocate_nothing () =
  let _, engine, w, _, r1, _ = world () in
  let c = C.create w ~node:r1 config in
  C.start c;
  let arrival = words_per_call 10_000 (fun () -> C.note_arrival c ~in_port:1 ~out_port:2) in
  if arrival > 0.01 then Alcotest.failf "note_arrival: %.3f words per call" arrival;
  C.handle_ctl c ~arrival_port:1 ~congested_port:3 ~rate_bps:1e9;
  Sim.Engine.run ~until:(Sim.Time.ms 10) engine;
  let f = frame w ~next_port:3 4 in
  let admitted = ref 0 in
  let admit =
    words_per_call 10_000 (fun () -> if C.admit c ~out_port:1 f then incr admitted)
  in
  check_int "all admitted" 10_001 !admitted;
  if admit > 0.01 then Alcotest.failf "admit: %.3f words per call" admit

(* property: bucket_bits <= burst cap at every observation point, under
   arbitrary interleavings of rate raises/cuts, submits, quiet time and
   the monitor's own ramping *)
type op = Refresh of float | Advance of int | Submit of int

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun r -> Refresh r) (float_range 100.0 2e7));
        (3, map (fun ms -> Advance ms) (int_range 1 40));
        (2, map (fun b -> Submit b) (int_range 1 2000));
      ])

let qcheck_bucket_invariant =
  QCheck.Test.make ~name:"bucket never exceeds burst cap" ~count:200
    (QCheck.make QCheck.Gen.(list_size (int_range 1 60) op_gen))
    (fun ops ->
      let _, engine, w, _, r1, _ = world () in
      let c = C.create w ~node:r1 config in
      C.start c;
      C.handle_ctl c ~arrival_port:1 ~congested_port:3 ~rate_bps:1e6;
      List.for_all
        (fun op ->
          (match op with
          | Refresh r -> C.handle_ctl c ~arrival_port:1 ~congested_port:3 ~rate_bps:r
          | Advance ms ->
            Sim.Engine.run ~until:(Sim.Engine.now engine + Sim.Time.ms ms) engine
          | Submit b ->
            submit c ~out_port:1 (frame w ~next_port:3 b) ~send:ignore);
          match C.bucket_level c ~out_port:1 ~next_port:3 with
          | None -> true (* expired: nothing left to violate *)
          | Some (bucket, cap) -> bucket <= cap +. 1e-6)
        ops)

let () =
  Alcotest.run "congestion"
    [
      ( "limiter",
        [
          Alcotest.test_case "unlimited passes" `Quick unlimited_passes_through;
          Alcotest.test_case "paces to rate" `Quick limiter_paces_to_rate;
          Alcotest.test_case "exact key" `Quick limiter_key_is_exact;
          Alcotest.test_case "keys at the edges" `Quick limiter_keys_at_the_edges;
          Alcotest.test_case "soft-state expiry" `Quick limiter_expires_as_soft_state;
          Alcotest.test_case "ramp raises rate" `Quick ramp_raises_rate;
          Alcotest.test_case "per-frame calls allocate nothing" `Quick
            per_frame_calls_allocate_nothing;
        ] );
      ( "monitor",
        [
          Alcotest.test_case "signals feeders" `Quick monitor_signals_feeders;
          Alcotest.test_case "quiet when uncongested" `Quick monitor_quiet_when_uncongested;
          Alcotest.test_case "idle drains" `Quick idle_controller_drains_event_queue;
        ] );
      ( "hardening",
        [
          Alcotest.test_case "hysteresis refreshes until drained" `Quick
            hysteresis_refreshes_until_drained;
          Alcotest.test_case "ramp clamped at line rate" `Quick
            ramp_clamp_caps_at_line_rate;
          Alcotest.test_case "unclamped ramp blows past line rate" `Quick
            unclamped_ramp_blows_past_line_rate;
          Alcotest.test_case "refreshes hold the rate" `Quick refreshes_hold_the_rate;
          Alcotest.test_case "flap counted across quiescence" `Quick
            flap_counted_across_quiescence;
          Alcotest.test_case "refresh re-evaluates waiting drain" `Quick
            refresh_reevaluates_waiting_drain;
        ] );
      ( "properties",
        List.map Seeded.to_alcotest [ qcheck_bucket_invariant ] );
    ]
