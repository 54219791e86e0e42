(* Direct tests for the netsim link/port layer: serialization timing,
   priority queueing, preemption semantics, buffers, corruption, failure. *)

module G = Topo.Graph
module W = Netsim.World

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let props = G.default_props (* 10 Mb/s, 5 us prop *)

(* two nodes, one link; a recording handler on [b] *)
let pair () =
  let g = G.create () in
  let a = G.add_node g G.Host and b = G.add_node g G.Host in
  ignore (G.connect g a b props);
  let engine = Sim.Engine.create () in
  let world = W.create engine g in
  let log = ref [] in
  W.set_handler world b (fun _ ~in_port ~frame ~head ~tail ->
      log := (in_port, frame, head, tail) :: !log);
  (g, engine, world, a, b, log)

let serialization_timing () =
  let _, engine, world, a, _, log = pair () in
  (* 1000 B at 10 Mb/s = 800 us tx; head at 5 us, tail at 805 us *)
  let frame = W.fresh_frame world (Bytes.make 1000 'x') in
  (match W.send world ~node:a ~port:1 frame with
  | W.Started -> ()
  | _ -> Alcotest.fail "expected Started");
  Sim.Engine.run engine;
  match !log with
  | [ (in_port, _, head, tail) ] ->
    check_int "in port" 1 in_port;
    check_int "head = propagation" (Sim.Time.us 5) head;
    check_int "tail = tx + propagation" (Sim.Time.us 805) tail
  | _ -> Alcotest.fail "expected one delivery"

let fifo_when_busy () =
  let _, engine, world, a, _, log = pair () in
  let f1 = W.fresh_frame world (Bytes.make 100 '1') in
  let f2 = W.fresh_frame world (Bytes.make 100 '2') in
  ignore (W.send world ~node:a ~port:1 f1);
  (match W.send world ~node:a ~port:1 f2 with
  | W.Queued -> ()
  | _ -> Alcotest.fail "expected Queued");
  check_int "queue length" 1 (W.queue_length world ~node:a ~port:1);
  Sim.Engine.run engine;
  let order = List.rev_map (fun (_, f, _, _) -> Bytes.get f.Netsim.Frame.payload 0) !log in
  Alcotest.(check (list char)) "fifo order" [ '1'; '2' ] order

let priority_order_in_queue () =
  let _, engine, world, a, _, log = pair () in
  (* occupy the port, then queue normal + high; high must go first *)
  ignore (W.send world ~node:a ~port:1 (W.fresh_frame world (Bytes.make 1000 '0')));
  ignore (W.send world ~node:a ~port:1 (W.fresh_frame world ~priority:0 (Bytes.make 100 'n')));
  ignore (W.send world ~node:a ~port:1 (W.fresh_frame world ~priority:5 (Bytes.make 100 'h')));
  Sim.Engine.run engine;
  let order = List.rev_map (fun (_, f, _, _) -> Bytes.get f.Netsim.Frame.payload 0) !log in
  Alcotest.(check (list char)) "priority first among queued" [ '0'; 'h'; 'n' ] order

let preemption_kills_victim () =
  let _, engine, world, a, _, log = pair () in
  let victim = W.fresh_frame world (Bytes.make 1000 'v') in
  ignore (W.send world ~node:a ~port:1 victim);
  (* preempt 100 us into the 800 us transmission *)
  Sim.Engine.schedule engine ~delay:(Sim.Time.us 100) (fun () ->
      let urgent = W.fresh_frame world ~priority:7 (Bytes.make 100 'u') in
      match W.send world ~node:a ~port:1 urgent with
      | W.Started_preempting f ->
        check_bool "preempted the victim" true (f == victim)
      | _ -> Alcotest.fail "expected preemption");
  Sim.Engine.run engine;
  (* the victim's delivery was cancelled OR flagged aborted *)
  let alive =
    List.filter
      (fun (_, f, _, _) ->
        Bytes.get f.Netsim.Frame.payload 0 = 'v' && not f.Netsim.Frame.aborted)
      !log
  in
  check_int "victim never delivered intact" 0 (List.length alive);
  check_int "one preemption counted" 1 (W.port_stats world ~node:a ~port:1).W.preempted

let preemptive_does_not_preempt_preemptive () =
  let _, engine, world, a, _, log = pair () in
  ignore (W.send world ~node:a ~port:1 (W.fresh_frame world ~priority:6 (Bytes.make 1000 'a')));
  Sim.Engine.schedule engine ~delay:(Sim.Time.us 100) (fun () ->
      match W.send world ~node:a ~port:1 (W.fresh_frame world ~priority:7 (Bytes.make 100 'b')) with
      | W.Queued -> ()
      | _ -> Alcotest.fail "priority 7 must queue behind priority 6");
  Sim.Engine.run engine;
  check_int "both arrive" 2 (List.length !log)

let drop_if_blocked () =
  let _, engine, world, a, _, log = pair () in
  ignore (W.send world ~node:a ~port:1 (W.fresh_frame world (Bytes.make 1000 'x')));
  let dib = W.fresh_frame world ~drop_if_blocked:true (Bytes.make 100 'd') in
  (match W.send world ~node:a ~port:1 dib with
  | W.Dropped_blocked -> ()
  | _ -> Alcotest.fail "expected Dropped_blocked");
  Sim.Engine.run engine;
  check_int "only first arrives" 1 (List.length !log);
  check_int "counted" 1 (W.port_stats world ~node:a ~port:1).W.dropped_blocked

let buffer_overflow () =
  let _, engine, world, a, _, _ = pair () in
  W.set_buffer_bytes world ~node:a ~port:1 2048;
  ignore (W.send world ~node:a ~port:1 (W.fresh_frame world (Bytes.make 1000 'x')));
  (* two queue, the third overflows the 2048 B buffer *)
  ignore (W.send world ~node:a ~port:1 (W.fresh_frame world (Bytes.make 1000 'x')));
  ignore (W.send world ~node:a ~port:1 (W.fresh_frame world (Bytes.make 1000 'x')));
  (match W.send world ~node:a ~port:1 (W.fresh_frame world (Bytes.make 1000 'x')) with
  | W.Dropped_overflow -> ()
  | _ -> Alcotest.fail "expected overflow");
  Sim.Engine.run engine;
  check_int "overflow counted" 1 (W.port_stats world ~node:a ~port:1).W.dropped_overflow

let no_link_drop () =
  let g = G.create () in
  let a = G.add_node g G.Host in
  let engine = Sim.Engine.create () in
  let world = W.create engine g in
  (match W.send world ~node:a ~port:1 (W.fresh_frame world (Bytes.make 10 'x')) with
  | W.Dropped_no_link -> ()
  | _ -> Alcotest.fail "expected no link");
  check_int "counted" 1 (W.port_stats world ~node:a ~port:1).W.dropped_no_link

let failed_link_keeps_in_flight () =
  let g, engine, world, a, _, log = pair () in
  ignore (W.send world ~node:a ~port:1 (W.fresh_frame world (Bytes.make 100 'x')));
  (* fail immediately: frame already in flight still arrives *)
  (match G.link_via g a 1 with
  | Some l -> W.fail_link world l
  | None -> Alcotest.fail "link");
  (match W.send world ~node:a ~port:1 (W.fresh_frame world (Bytes.make 100 'y')) with
  | W.Dropped_no_link -> ()
  | _ -> Alcotest.fail "second send must fail");
  Sim.Engine.run engine;
  check_int "in-flight frame arrived" 1 (List.length !log)

let queued_frames_dropped_when_link_dies_midstream () =
  let g, engine, world, a, _, log = pair () in
  ignore (W.send world ~node:a ~port:1 (W.fresh_frame world (Bytes.make 1000 '1')));
  ignore (W.send world ~node:a ~port:1 (W.fresh_frame world (Bytes.make 1000 '2')));
  (* kill the link during the first transmission; the queued frame is
     dropped at completion time *)
  Sim.Engine.schedule engine ~delay:(Sim.Time.us 100) (fun () ->
      match G.link_via g a 1 with
      | Some l -> W.fail_link world l
      | None -> ());
  Sim.Engine.run engine;
  check_int "first delivered" 1 (List.length !log);
  check_bool "second dropped no-link" true
    ((W.port_stats world ~node:a ~port:1).W.dropped_no_link >= 1)

let corruption_flips_bytes () =
  let _, engine, world, a, _, log = pair () in
  W.set_bit_error_rate world ~link_id:0 1e-3;
  for _ = 1 to 30 do
    ignore (W.send world ~node:a ~port:1 (W.fresh_frame world (Bytes.make 500 '\000')))
  done;
  Sim.Engine.run engine;
  let corrupted_deliveries =
    List.filter
      (fun (_, f, _, _) -> Bytes.exists (fun c -> c <> '\000') f.Netsim.Frame.payload)
      !log
  in
  check_bool "some frames corrupted" true (List.length corrupted_deliveries > 0);
  check_bool "stat matches" true
    ((W.port_stats world ~node:a ~port:1).W.corrupted
    = List.length corrupted_deliveries)

let utilization_accounting () =
  let _, engine, world, a, _, _ = pair () in
  (* one 1000 B frame = 800 us busy; run to exactly 1600 us -> 50% util *)
  ignore (W.send world ~node:a ~port:1 (W.fresh_frame world (Bytes.make 1000 'x')));
  Sim.Engine.run ~until:(Sim.Time.us 1600) engine;
  let u = W.utilization world ~node:a ~port:1 in
  check_bool "50% busy" true (abs_float (u -. 0.5) < 0.01);
  let st = W.port_stats world ~node:a ~port:1 in
  check_int "bytes" 1000 st.W.sent_bytes;
  check_int "frames" 1 st.W.sent_frames

let undelivered_counted () =
  let g = G.create () in
  let a = G.add_node g G.Host and b = G.add_node g G.Host in
  ignore (G.connect g a b props);
  let engine = Sim.Engine.create () in
  let world = W.create engine g in
  (* no handler on b *)
  ignore (W.send world ~node:a ~port:1 (W.fresh_frame world (Bytes.make 10 'x')));
  Sim.Engine.run engine;
  check_int "undelivered" 1 (W.undelivered world)

(* The world's port and handler tables are sized on demand: nodes and
   ports that appear after [W.create] — including a port number far past
   any link — must work like the ones that were there. *)
let tables_grow_after_create () =
  let g = G.create () in
  let hub = G.add_node g G.Router in
  let engine = Sim.Engine.create () in
  let world = W.create engine g in
  let leaves = Array.init 40 (fun _ -> G.add_node g G.Host) in
  let ports = Array.map (fun l -> fst (G.connect g hub l props)) leaves in
  let last = Array.length leaves - 1 in
  let got = ref [] in
  W.set_handler world leaves.(last) (fun _ ~in_port ~frame:_ ~head:_ ~tail:_ ->
      got := in_port :: !got);
  let frame () = W.fresh_frame world (Bytes.make 10 'x') in
  ignore (W.send world ~node:hub ~port:ports.(last) (frame ()));
  (match W.send world ~node:hub ~port:200 (frame ()) with
  | W.Dropped_no_link -> ()
  | _ -> Alcotest.fail "port 200 has no link");
  Sim.Engine.run engine;
  Alcotest.(check (list int)) "delivered on the leaf's port" [ 1 ] !got;
  check_int "sent on the last port" 1
    (W.port_stats world ~node:hub ~port:ports.(last)).W.sent_frames;
  check_int "no-link drop on port 200" 1
    (W.port_stats world ~node:hub ~port:200).W.dropped_no_link;
  check_int "first port untouched" 0
    (W.port_stats world ~node:hub ~port:ports.(0)).W.sent_frames

(* The idle rule. A transmission's completion is lazy: it reserves the
   engine key [(finish, seq)] when the transmission starts and is only
   scheduled when a frame waits behind it. The port must still look busy
   to exactly the events an eager completion would have run after, so
   a key at [finish] that sorts before the reserved one sees a busy port
   and one that sorts after sees it free. *)

(* a -> b, 1000 B at 10 Mb/s: the transmission started at 0 finishes at
   800 us; [propagation] defaults to 5 us *)
let idle_finish = Sim.Time.us 800

let idle_pair ?(propagation = Sim.Time.us 5) () =
  let g = G.create () in
  let a = G.add_node g G.Host and b = G.add_node g G.Host in
  ignore (G.connect g a b { props with G.propagation });
  let engine = Sim.Engine.create () in
  let world = W.create engine g in
  let log = ref [] in
  W.set_handler world b (fun _ ~in_port:_ ~frame ~head:_ ~tail:_ ->
      log := frame :: !log);
  (engine, world, a, log)

(* Start the 1000 B transmission at 0 inside an event, scheduling
   [before] at [at] just before it (keyed below its completion) and
   [after] just after it (keyed above). *)
let around_transmission ?flight engine world a ~at ~before ~after =
  let at_key f = Sim.Engine.schedule_at engine ~time:at f in
  Sim.Engine.schedule_at engine ~time:0 (fun () ->
      List.iter at_key before;
      ignore
        (W.send world ~node:a ~port:1
           (W.fresh_frame world ?flight (Bytes.make 1000 'x')));
      List.iter at_key after)

let send_result_name = function
  | W.Started -> "Started"
  | W.Started_preempting _ -> "Started_preempting"
  | W.Queued -> "Queued"
  | W.Dropped_blocked -> "Dropped_blocked"
  | W.Dropped_overflow -> "Dropped_overflow"
  | W.Dropped_no_link -> "Dropped_no_link"

let idle_rule_send_at_finish () =
  let probe world a =
    let result = ref "not run" in
    let f () =
      result :=
        send_result_name
          (W.send world ~node:a ~port:1 (W.fresh_frame world (Bytes.make 100 'p')))
    in
    (result, f)
  in
  (* keyed before the reserved completion key: the port is busy *)
  let engine, world, a, _ = idle_pair () in
  let result, f = probe world a in
  around_transmission engine world a ~at:idle_finish ~before:[ f ] ~after:[];
  Sim.Engine.run engine;
  Alcotest.(check string) "before the key" "Queued" !result;
  (* keyed after it: the port is free *)
  let engine, world, a, _ = idle_pair () in
  let result, f = probe world a in
  around_transmission engine world a ~at:idle_finish ~before:[] ~after:[ f ];
  Sim.Engine.run engine;
  Alcotest.(check string) "after the key" "Started" !result

let idle_rule_port_busy () =
  let engine, world, a, _ = idle_pair () in
  let seen = ref [] in
  let look what () =
    seen := (what, W.port_busy world ~node:a ~port:1) :: !seen
  in
  Sim.Engine.schedule_at engine ~time:(idle_finish - 1) (look "finish - 1");
  around_transmission engine world a ~at:idle_finish
    ~before:[ look "finish, before the key" ]
    ~after:[ look "finish, after the key" ];
  Sim.Engine.schedule_at engine ~time:(idle_finish + 1) (look "finish + 1");
  Sim.Engine.run engine;
  Alcotest.(check (list (pair string bool)))
    "busy"
    [
      ("finish - 1", true);
      ("finish, before the key", true);
      ("finish, after the key", false);
      ("finish + 1", false);
    ]
    (List.rev !seen)

(* A purge after the completion key has passed finds an idle port: the
   frame is on the wire, so nothing is purged, aborted or cancelled —
   here its head is still 1.2 ms from the peer when the node crashes. *)
let idle_rule_purge_after_finish () =
  let engine, world, a, log = idle_pair ~propagation:(Sim.Time.ms 2) () in
  let recorder = W.flight world in
  Telemetry.Flight.set_policy recorder
    { Telemetry.Flight.sample_every = 1; capture_drops = true; capacity = 16 };
  let flight = Telemetry.Flight.start recorder ~now:0 in
  let purged = ref (-1) in
  around_transmission ?flight engine world a ~at:idle_finish ~before:[]
    ~after:[ (fun () -> purged := W.purge_node world ~node:a) ];
  Sim.Engine.run engine;
  check_int "purge_node result" 0 !purged;
  check_int "purged count" 0 (W.port_stats world ~node:a ~port:1).W.purged;
  check_int "flight drops" 0 (Telemetry.Flight.dropped recorder);
  match !log with
  | [ frame ] -> check_bool "delivered whole" false frame.Netsim.Frame.aborted
  | l -> Alcotest.failf "%d deliveries" (List.length l)

(* The per-frame lookups a hop makes are array reads: none allocates
   (once the port's record exists — the first use creates it). *)
let lookups_allocate_nothing () =
  let g, _, world, a, _, _ = pair () in
  W.set_store_and_forward world ~link_id:0;
  let words f =
    ignore (f ());
    let w0 = Gc.minor_words () in
    for _ = 1 to 10_000 do
      ignore (Sys.opaque_identity (f ()))
    done;
    Gc.minor_words () -. w0
  in
  (* a few words of slack for the measurement's own boxed floats *)
  let check name f =
    let w = words f in
    if w > 16.0 then Alcotest.failf "%s allocated %.0f words over 10000 calls" name w
  in
  check "G.link_at" (fun () -> G.link_at g a 1);
  check "W.port_busy" (fun () -> W.port_busy world ~node:a ~port:1);
  check "W.store_and_forward" (fun () -> W.store_and_forward world ~link_id:0);
  check "W.store_and_forward, unset" (fun () -> W.store_and_forward world ~link_id:5)

let () =
  Alcotest.run "netsim"
    [
      ( "transmission",
        [
          Alcotest.test_case "serialization timing" `Quick serialization_timing;
          Alcotest.test_case "fifo when busy" `Quick fifo_when_busy;
          Alcotest.test_case "priority ordering" `Quick priority_order_in_queue;
          Alcotest.test_case "utilization accounting" `Quick utilization_accounting;
        ] );
      ( "preemption",
        [
          Alcotest.test_case "kills victim" `Quick preemption_kills_victim;
          Alcotest.test_case "no preempt among preemptives" `Quick
            preemptive_does_not_preempt_preemptive;
        ] );
      ( "drops",
        [
          Alcotest.test_case "drop-if-blocked" `Quick drop_if_blocked;
          Alcotest.test_case "buffer overflow" `Quick buffer_overflow;
          Alcotest.test_case "no link" `Quick no_link_drop;
          Alcotest.test_case "in-flight survives failure" `Quick failed_link_keeps_in_flight;
          Alcotest.test_case "queued dropped on mid-stream failure" `Quick
            queued_frames_dropped_when_link_dies_midstream;
          Alcotest.test_case "undelivered counted" `Quick undelivered_counted;
        ] );
      ( "tables",
        [
          Alcotest.test_case "grow after create" `Quick tables_grow_after_create;
          Alcotest.test_case "lookups allocate nothing" `Quick lookups_allocate_nothing;
        ] );
      ( "corruption",
        [ Alcotest.test_case "ber flips bytes" `Quick corruption_flips_bytes ] );
      ( "idle rule",
        [
          Alcotest.test_case "send at finish, either side of the key" `Quick
            idle_rule_send_at_finish;
          Alcotest.test_case "port_busy around finish" `Quick idle_rule_port_busy;
          Alcotest.test_case "purge after finish purges nothing" `Quick
            idle_rule_purge_after_finish;
        ] );
    ]
