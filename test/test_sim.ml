(* Tests for the discrete-event simulation engine and measurement tools. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

(* Time *)

let time_units () =
  check_int "us" 1_000 (Sim.Time.us 1);
  check_int "ms" 1_000_000 (Sim.Time.ms 1);
  check_int "s" 1_000_000_000 (Sim.Time.s 1);
  check_float "to_seconds" 1.5 (Sim.Time.to_seconds (Sim.Time.ms 1500))

let time_transmission () =
  (* 1500 bytes at 10 Mb/s = 1.2 ms *)
  check_int "1500B @ 10Mbps"
    (Sim.Time.ms 1 + Sim.Time.us 200)
    (Sim.Time.transmission ~bits:12000 ~rate_bps:10_000_000);
  (* rounding up *)
  check_int "1 bit @ 1Gbps" 1 (Sim.Time.transmission ~bits:1 ~rate_bps:1_000_000_000)

let time_pp () =
  let s t = Format.asprintf "%a" Sim.Time.pp t in
  Alcotest.(check string) "ns" "500ns" (s 500);
  Alcotest.(check string) "us" "12.00us" (s (Sim.Time.us 12));
  Alcotest.(check string) "ms" "3.50ms" (s (Sim.Time.us 3500))

(* Rng *)

let rng_deterministic () =
  let a = Sim.Rng.create 7L and b = Sim.Rng.create 7L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Sim.Rng.bits64 a) (Sim.Rng.bits64 b)
  done

let rng_split_independent () =
  let a = Sim.Rng.create 7L in
  let c = Sim.Rng.split a in
  check_bool "split differs from parent stream" true
    (Sim.Rng.bits64 a <> Sim.Rng.bits64 c)

let rng_int_bounds () =
  let rng = Sim.Rng.create 1L in
  for _ = 1 to 10_000 do
    let v = Sim.Rng.int rng 17 in
    check_bool "in range" true (v >= 0 && v < 17)
  done

let rng_float_bounds () =
  let rng = Sim.Rng.create 2L in
  for _ = 1 to 10_000 do
    let v = Sim.Rng.float rng 3.0 in
    check_bool "in range" true (v >= 0.0 && v < 3.0)
  done

let rng_exponential_mean () =
  let rng = Sim.Rng.create 3L in
  let n = 100_000 in
  let total = ref 0.0 in
  for _ = 1 to n do
    total := !total +. Sim.Rng.exponential rng ~mean:2.0
  done;
  let mean = !total /. float_of_int n in
  check_bool "mean near 2" true (abs_float (mean -. 2.0) < 0.05)

let rng_uniform_int_inclusive () =
  let rng = Sim.Rng.create 4L in
  let seen_lo = ref false and seen_hi = ref false in
  for _ = 1 to 1000 do
    let v = Sim.Rng.uniform_int rng ~lo:3 ~hi:5 in
    check_bool "range" true (v >= 3 && v <= 5);
    if v = 3 then seen_lo := true;
    if v = 5 then seen_hi := true
  done;
  check_bool "hits lo" true !seen_lo;
  check_bool "hits hi" true !seen_hi

let rng_shuffle_permutes () =
  let rng = Sim.Rng.create 5L in
  let a = Array.init 20 (fun i -> i) in
  Sim.Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same elements" (Array.init 20 (fun i -> i)) sorted

(* Heap *)

let heap_orders_by_time () =
  let h = Sim.Heap.create ~dummy:"" in
  Sim.Heap.push h ~time:30 ~seq:0 "c";
  Sim.Heap.push h ~time:10 ~seq:1 "a";
  Sim.Heap.push h ~time:20 ~seq:2 "b";
  let pop () = Sim.Heap.pop_value h in
  let first = pop () in
  let second = pop () in
  let third = pop () in
  Alcotest.(check (list string)) "sorted" [ "a"; "b"; "c" ] [ first; second; third ]

let heap_fifo_within_time () =
  let h = Sim.Heap.create ~dummy:"" in
  Sim.Heap.push h ~time:5 ~seq:0 "first";
  Sim.Heap.push h ~time:5 ~seq:1 "second";
  let pop () = Sim.Heap.pop_value h in
  let first = pop () in
  let second = pop () in
  Alcotest.(check (list string)) "fifo" [ "first"; "second" ] [ first; second ]

let heap_many_random () =
  let rng = Sim.Rng.create 9L in
  let h = Sim.Heap.create ~dummy:(-1) in
  for i = 0 to 999 do
    Sim.Heap.push h ~time:(Sim.Rng.int rng 100) ~seq:i i
  done;
  let last = ref min_int in
  let count = ref 0 in
  while not (Sim.Heap.is_empty h) do
    let time = Sim.Heap.min_time h in
    ignore (Sim.Heap.pop_value h);
    check_bool "monotone" true (time >= !last);
    last := time;
    incr count
  done;
  check_int "all popped" 1000 !count;
  Alcotest.check_raises "empty pop rejected"
    (Invalid_argument "Heap.pop_value: empty heap") (fun () ->
      ignore (Sim.Heap.pop_value h))

(* Push [n] fresh blocks (enough to grow the arrays), pop [popped] of
   them, and return weak pointers to every block: the heap is the only
   thing holding the blocks that remain. *)
let[@inline never] heap_fill h ~n ~popped =
  let w = Weak.create n in
  for i = 0 to n - 1 do
    let b = Bytes.make 32 'x' in
    Weak.set w i (Some b);
    Sim.Heap.push h ~time:i ~seq:i b
  done;
  for _ = 1 to popped do
    ignore (Sys.opaque_identity (Sim.Heap.pop_value h))
  done;
  w

let heap_releases_popped () =
  let h = Sim.Heap.create ~dummy:Bytes.empty in
  let w = heap_fill h ~n:40 ~popped:25 in
  Gc.full_major ();
  for i = 0 to 39 do
    check_bool
      (Printf.sprintf "block %d %s" i (if i < 25 then "collected" else "held"))
      (i >= 25) (Weak.check w i)
  done;
  Sim.Heap.clear h;
  check_bool "cleared" true (Sim.Heap.is_empty h);
  Gc.full_major ();
  for i = 25 to 39 do
    check_bool (Printf.sprintf "block %d collected once cleared" i) false
      (Weak.check w i)
  done;
  ignore (Sys.opaque_identity h)

type heap_op = Push of int | Pop | Clear

(* Model check: any interleaving of pushes (times drawn from a handful of
   values, so ties are the norm), pops and clears yields exactly the
   (time, seq) order of a sorted reference list. Pushes outnumber pops
   and programs run to 600 steps, so the arrays grow several times
   (16, 32, 64, 128) with value slots freed and reused in between. *)
let qcheck_heap_model =
  QCheck.Test.make ~name:"heap pops in (time, seq) order of a sorted model"
    ~count:300
    QCheck.(
      make
        ~print:(fun ops ->
          String.concat " "
            (List.map
               (function Push t -> string_of_int t | Pop -> "pop" | Clear -> "clear")
               ops))
        Gen.(
          list_size (0 -- 600)
            (frequency
               [ (30, map (fun t -> Push t) (0 -- 3)); (20, return Pop); (1, return Clear) ])))
    (fun ops ->
      let h = Sim.Heap.create ~dummy:(-1, -1) in
      let model = ref [] and seq = ref 0 in
      let pop_both () =
        match List.sort compare !model with
        | [] -> Sim.Heap.is_empty h
        | (t, s) :: rest ->
          model := rest;
          let ht = Sim.Heap.min_time h and hs = Sim.Heap.min_seq h in
          let v = Sim.Heap.pop_value h in
          ht = t && hs = s && v = (t, s) && Sim.Heap.size h = List.length rest
      in
      let ok =
        List.for_all
          (function
            | Push t ->
              Sim.Heap.push h ~time:t ~seq:!seq (t, !seq);
              model := (t, !seq) :: !model;
              incr seq;
              true
            | Pop -> pop_both ()
            | Clear ->
              Sim.Heap.clear h;
              model := [];
              Sim.Heap.size h = 0)
          ops
      in
      let rec drain () = Sim.Heap.is_empty h || (pop_both () && drain ()) in
      ok && drain () && !model = [])

(* Engine *)

let engine_runs_in_order () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  Sim.Engine.schedule e ~delay:30 (fun () -> log := 3 :: !log);
  Sim.Engine.schedule e ~delay:10 (fun () -> log := 1 :: !log);
  Sim.Engine.schedule e ~delay:20 (fun () -> log := 2 :: !log);
  Sim.Engine.run e;
  Alcotest.(check (list int)) "order" [ 1; 2; 3 ] (List.rev !log);
  check_int "clock at last event" 30 (Sim.Engine.now e)

let engine_nested_schedule () =
  let e = Sim.Engine.create () in
  let fired = ref 0 in
  Sim.Engine.schedule e ~delay:10 (fun () ->
      Sim.Engine.schedule e ~delay:5 (fun () -> fired := Sim.Engine.now e));
  Sim.Engine.run e;
  check_int "nested at 15" 15 !fired

let engine_cancel () =
  let e = Sim.Engine.create () in
  let fired = ref false in
  let seq = Sim.Engine.alloc_seq e in
  Sim.Engine.schedule_keyed e ~time:10 ~seq (fun () -> fired := true);
  Sim.Engine.cancel e ~time:10 ~seq;
  Sim.Engine.run e;
  check_bool "cancelled" false !fired;
  check_int "nothing executed" 0 (Sim.Engine.executed e)

let engine_until_stops_clock () =
  let e = Sim.Engine.create () in
  let fired = ref false in
  Sim.Engine.schedule e ~delay:100 (fun () -> fired := true);
  Sim.Engine.run ~until:50 e;
  check_bool "not yet" false !fired;
  check_int "clock advanced to until" 50 (Sim.Engine.now e);
  Sim.Engine.run e;
  check_bool "eventually" true !fired

let engine_rejects_past () =
  let e = Sim.Engine.create () in
  Sim.Engine.schedule e ~delay:10 (fun () -> ());
  Sim.Engine.run e;
  Alcotest.check_raises "past" (Invalid_argument "Engine.schedule_at: time in the past")
    (fun () -> Sim.Engine.schedule_at e ~time:5 (fun () -> ()))

(* A run that [max_events] stops with events still due before [until]
   leaves the clock at the last event it ran: the events left run later
   at their own times, never in the past. *)
let engine_until_with_max_events () =
  let e = Sim.Engine.create () in
  let seen = ref [] in
  List.iter
    (fun time -> Sim.Engine.schedule_at e ~time (fun () -> seen := Sim.Engine.now e :: !seen))
    [ 10; 20 ];
  Sim.Engine.run ~until:100 ~max_events:1 e;
  check_int "clock at the event that ran" 10 (Sim.Engine.now e);
  Sim.Engine.run ~until:100 e;
  Alcotest.(check (list int)) "each event at its own time" [ 10; 20 ] (List.rev !seen);
  check_int "a drained run reaches until" 100 (Sim.Engine.now e);
  (* the cap can stop a run whose remaining events all lie past [until] *)
  Sim.Engine.schedule_at e ~time:110 ignore;
  Sim.Engine.schedule_at e ~time:200 ignore;
  Sim.Engine.run ~until:150 ~max_events:1 e;
  check_int "nothing else due: clock at until" 150 (Sim.Engine.now e)

let engine_max_events () =
  let e = Sim.Engine.create () in
  let count = ref 0 in
  let rec loop () =
    incr count;
    Sim.Engine.schedule e ~delay:1 loop
  in
  Sim.Engine.schedule e ~delay:1 loop;
  Sim.Engine.run ~max_events:100 e;
  check_int "bounded" 100 !count

(* With 96 events standing in the queue (the depth the fan-in workloads
   run at), a self-rescheduling event whose closure is built once costs
   the engine nothing per schedule+dispatch: no event record, no key
   tuples, no options, no boxed entries. An event of a registered kind
   costs nothing either, its post included: 50 000 of them, re-posting
   themselves, allocate no word. *)
let engine_run_allocation () =
  let e = Sim.Engine.create () in
  for _ = 1 to 96 do
    Sim.Engine.schedule_at e ~time:(Sim.Time.s 10) ignore
  done;
  let left = ref 0 in
  let rec tick () =
    if !left > 0 then begin
      decr left;
      Sim.Engine.schedule e ~delay:1 tick
    end
  in
  let events = 50_000 in
  left := events;
  Sim.Engine.schedule e ~delay:1 tick;
  let w0 = Gc.minor_words () in
  Sim.Engine.run ~until:(Sim.Time.s 1) e;
  let words = Gc.minor_words () -. w0 in
  check_int "every tick ran" 0 !left;
  (* a few words of slack for the measurement's own boxed floats *)
  if words > 16.0 then
    Alcotest.failf "Engine.run allocated %.0f words over %d events" words events;
  let kind = ref Sim.Engine.closure_kind in
  let step payload =
    if !left > 0 then begin
      decr left;
      Sim.Engine.post_at e ~time:(Sim.Engine.now e + 1) ~kind:!kind (payload + 1)
    end
  in
  kind := Sim.Engine.register e step;
  left := events;
  Sim.Engine.post_at e ~time:(Sim.Engine.now e + 1) ~kind:!kind 0;
  let w0 = Gc.minor_words () in
  Sim.Engine.run ~until:(Sim.Time.s 2) e;
  let words = Gc.minor_words () -. w0 in
  check_int "every kinded event ran" 0 !left;
  check_int "counted by kind" (events + 1) (Sim.Engine.executed_kind e !kind);
  if words > 16.0 then
    Alcotest.failf "Engine.run allocated %.0f words over %d kinded events" words events

(* The executing key: an event runs at [(now, executing_seq)]; a key
   reserved while it runs sorts after it, even inside a foreign event,
   whose own seq sits above every local one; between runs every key
   reserved so far has passed and none reserved since has. *)
let engine_executing_key () =
  let module E = Sim.Engine in
  let e = E.create () in
  let seen = ref [] in
  let note what () = seen := (what, E.executing_seq e) :: !seen in
  let reserve_now what =
    let seq = E.alloc_seq e in
    check_bool (what ^ ": reserved now, not passed") false
      (E.passed e ~time:(E.now e) ~seq)
  in
  check_int "before the first run" 0 (E.executing_seq e);
  E.schedule_at e ~time:5 (note "local");
  E.schedule_at e ~time:5 (fun () ->
      note "local, reserving" ();
      check_bool "an earlier key has passed" true (E.passed e ~time:5 ~seq:0);
      reserve_now "local");
  E.schedule_foreign e ~time:5 ~seq:E.foreign_seq_base (fun () ->
      note "foreign" ();
      check_bool "a local key reserved before it has passed" true
        (E.passed e ~time:5 ~seq:2);
      reserve_now "foreign");
  E.run e;
  Alcotest.(check (list (pair string int)))
    "published seqs"
    [ ("local", 0); ("local, reserving", 1); ("foreign", 3) ]
    (List.rev !seen);
  check_bool "between runs: reserved during the run, passed" true
    (E.passed e ~time:5 ~seq:3);
  reserve_now "between runs"

(* Stats *)

let summary_basics () =
  let s = Sim.Stats.Summary.create () in
  List.iter (Sim.Stats.Summary.add s) [ 1.0; 2.0; 3.0; 4.0 ];
  check_float "mean" 2.5 (Sim.Stats.Summary.mean s);
  check_float "min" 1.0 (Sim.Stats.Summary.min s);
  check_float "max" 4.0 (Sim.Stats.Summary.max s);
  check_float "variance" 1.25 (Sim.Stats.Summary.variance s)

let summary_empty () =
  let s = Sim.Stats.Summary.create () in
  check_float "mean 0" 0.0 (Sim.Stats.Summary.mean s);
  check_int "count" 0 (Sim.Stats.Summary.count s)

let timeweighted_mean () =
  let tw = Sim.Stats.Timeweighted.create ~start:0 ~initial:0.0 in
  Sim.Stats.Timeweighted.set tw ~now:10 2.0;
  (* 0 for [0,10), 2 for [10,20) -> mean 1.0 at t=20 *)
  check_float "mean" 1.0 (Sim.Stats.Timeweighted.mean tw ~now:20);
  check_float "max" 2.0 (Sim.Stats.Timeweighted.max tw)

let timeweighted_rejects_backwards () =
  let tw = Sim.Stats.Timeweighted.create ~start:0 ~initial:0.0 in
  Sim.Stats.Timeweighted.set tw ~now:10 1.0;
  Alcotest.check_raises "backwards"
    (Invalid_argument "Timeweighted.set: time went backwards") (fun () ->
      Sim.Stats.Timeweighted.set tw ~now:5 2.0)

(* How an event is queued: as a closure, or as data (a payload of a
   registered kind). *)
type how = Closure | Kinded

type cancel_op =
  | Sched of how * int * int option
      (** at time, at its reserved key, cancelling key [i] when it runs *)
  | Post of how * int * int option
      (** at time, at the next seq when the events are queued *)
  | Foreign of how * int * int option  (** at time, at a foreign key *)
  | Reserve  (** a key reserved and never scheduled *)
  | Cancel of int  (** cancel key [i] before the run *)

(* Keyed cancellation against a model: every key is reserved up front
   with [alloc_seq]; events are closures or kinded, queued at their
   reserved key ([schedule_keyed]/[post_keyed]), at the next seq
   ([schedule_at]/[post_at]) or at a foreign key ([schedule_foreign], or
   [post_keyed] at a foreign seq). Cancels come before the run and from
   inside running events, and hit keys that ran already, keys cancelled
   twice, the running event's own key and keys never scheduled. Exactly
   the events whose key was not cancelled before it came up run, in key
   order, and [executed] counts them, closures and kinds apart in
   [executed_kind]. *)
let qcheck_engine_cancel =
  QCheck.Test.make ~name:"keyed cancellation runs exactly the uncancelled events"
    ~count:300
    QCheck.(
      make
        ~print:(fun ops ->
          let ev tag how t c =
            Printf.sprintf "%s%s%d%s" tag
              (match how with Closure -> "" | Kinded -> "k")
              t
              (match c with None -> "" | Some i -> Printf.sprintf "/c%d" i)
          in
          String.concat " "
            (List.map
               (function
                 | Sched (how, t, c) -> ev "s" how t c
                 | Post (how, t, c) -> ev "p" how t c
                 | Foreign (how, t, c) -> ev "f" how t c
                 | Reserve -> "r"
                 | Cancel i -> Printf.sprintf "c%d" i)
               ops))
        Gen.(
          let event make =
            map3 make (oneofl [ Closure; Kinded ]) (0 -- 4) (opt (0 -- 63))
          in
          list_size (0 -- 60)
            (frequency
               [
                 (6, event (fun how t c -> Sched (how, t, c)));
                 (2, event (fun how t c -> Post (how, t, c)));
                 (2, event (fun how t c -> Foreign (how, t, c)));
                 (1, return Reserve);
                 (2, map (fun i -> Cancel i) (0 -- 63));
               ])))
    (fun ops ->
      let e = Sim.Engine.create () in
      let keys = Array.of_list (List.map (fun _ -> (0, Sim.Engine.alloc_seq e)) ops) in
      let n = Array.length keys in
      let key i = keys.(i mod n) in
      let targets = Array.make n None in
      let ran = ref [] in
      (* event [i]: note its key, then cancel its target *)
      let fire i =
        ran := keys.(i) :: !ran;
        Option.iter
          (fun j ->
            let time, seq = key j in
            Sim.Engine.cancel e ~time ~seq)
          targets.(i)
      in
      let kind = Sim.Engine.register e fire in
      let next = ref n in
      List.iteri
        (fun i op ->
          match op with
          | Sched (how, time, target) | Post (how, time, target) | Foreign (how, time, target)
            -> (
            let seq =
              match op with
              | Post _ ->
                incr next;
                !next - 1
              | Foreign _ -> Sim.Engine.foreign_seq_base + i
              | _ -> snd keys.(i)
            in
            keys.(i) <- (time, seq);
            targets.(i) <- target;
            match (op, how) with
            | Post _, Closure -> Sim.Engine.schedule_at e ~time (fun () -> fire i)
            | Post _, Kinded -> Sim.Engine.post_at e ~time ~kind i
            | Foreign _, Closure -> Sim.Engine.schedule_foreign e ~time ~seq (fun () -> fire i)
            | _, Closure -> Sim.Engine.schedule_keyed e ~time ~seq (fun () -> fire i)
            | _, Kinded -> Sim.Engine.post_keyed e ~time ~seq ~kind i)
          | Reserve | Cancel _ -> ())
        ops;
      List.iter
        (function
          | Cancel j ->
            let time, seq = key j in
            Sim.Engine.cancel e ~time ~seq
          | Sched _ | Post _ | Foreign _ | Reserve -> ())
        ops;
      Sim.Engine.run e;
      (* the model: walk the scheduled keys in order *)
      let cancelled = Hashtbl.create 8 in
      List.iter (function Cancel j -> Hashtbl.replace cancelled (key j) () | _ -> ()) ops;
      let scheduled =
        List.concat
          (List.mapi
             (fun i op ->
               match op with
               | Sched (how, _, c) | Post (how, _, c) | Foreign (how, _, c) ->
                 [ (keys.(i), c, how) ]
               | Reserve | Cancel _ -> [])
             ops)
        |> List.sort compare
      in
      let expected =
        List.filter_map
          (fun (k, target, how) ->
            if Hashtbl.mem cancelled k then None
            else begin
              Option.iter
                (fun j -> if compare (key j) k > 0 then Hashtbl.replace cancelled (key j) ())
                target;
              Some (k, how)
            end)
          scheduled
      in
      let count how = List.length (List.filter (fun (_, h) -> h = how) expected) in
      List.rev !ran = List.map fst expected
      && Sim.Engine.executed e = List.length expected
      && Sim.Engine.executed_kind e kind = count Kinded
      && Sim.Engine.executed_kind e Sim.Engine.closure_kind = count Closure
      && Sim.Engine.pending e = 0)

(* Closures and kinded events, queued in one stream from inside running
   events too, run in the reference model's order: by time, and in
   queueing order at equal times, whichever way each was queued. *)
let qcheck_engine_order =
  QCheck.Test.make ~name:"events always run in nondecreasing time order" ~count:50
    QCheck.(list_of_size Gen.(1 -- 100) (pair (int_range 0 1000) bool))
    (fun events ->
      let e = Sim.Engine.create () in
      let events = Array.of_list events in
      let n = Array.length events in
      let ran = ref [] and queued = ref [] in
      let kind = ref Sim.Engine.closure_kind in
      let rec queue i =
        let delay, kinded = events.(i) in
        let time = Sim.Engine.now e + delay in
        queued := (time, List.length !queued, i) :: !queued;
        if kinded then Sim.Engine.post_at e ~time ~kind:!kind i
        else Sim.Engine.schedule e ~delay (fun () -> fire i)
      (* event [i] queues event [i + n/2]: half the stream is queued
         while the run is under way *)
      and fire i =
        ran := i :: !ran;
        if i < n / 2 then queue (i + (n / 2))
      in
      kind := Sim.Engine.register e fire;
      for i = 0 to (n / 2) - 1 do
        queue i
      done;
      if n mod 2 = 1 then queue (n - 1);
      Sim.Engine.run e;
      let expected = List.map (fun (_, _, i) -> i) (List.sort compare !queued) in
      List.rev !ran = expected)

let () =
  Alcotest.run "sim"
    [
      ( "time",
        [
          Alcotest.test_case "units" `Quick time_units;
          Alcotest.test_case "transmission" `Quick time_transmission;
          Alcotest.test_case "pretty printing" `Quick time_pp;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick rng_deterministic;
          Alcotest.test_case "split independent" `Quick rng_split_independent;
          Alcotest.test_case "int bounds" `Quick rng_int_bounds;
          Alcotest.test_case "float bounds" `Quick rng_float_bounds;
          Alcotest.test_case "exponential mean" `Quick rng_exponential_mean;
          Alcotest.test_case "uniform_int inclusive" `Quick rng_uniform_int_inclusive;
          Alcotest.test_case "shuffle permutes" `Quick rng_shuffle_permutes;
        ] );
      ( "heap",
        [
          Alcotest.test_case "orders by time" `Quick heap_orders_by_time;
          Alcotest.test_case "fifo within a time" `Quick heap_fifo_within_time;
          Alcotest.test_case "many random" `Quick heap_many_random;
          Alcotest.test_case "popped values are collectable" `Quick
            heap_releases_popped;
        ] );
      ( "engine",
        [
          Alcotest.test_case "runs in order" `Quick engine_runs_in_order;
          Alcotest.test_case "nested scheduling" `Quick engine_nested_schedule;
          Alcotest.test_case "cancel" `Quick engine_cancel;
          Alcotest.test_case "until stops clock" `Quick engine_until_stops_clock;
          Alcotest.test_case "rejects the past" `Quick engine_rejects_past;
          Alcotest.test_case "max_events bounds" `Quick engine_max_events;
          Alcotest.test_case "until keeps the clock when max_events stops" `Quick
            engine_until_with_max_events;
          Alcotest.test_case "run allocates nothing" `Quick engine_run_allocation;
          Alcotest.test_case "executing key" `Quick engine_executing_key;
        ] );
      ( "stats",
        [
          Alcotest.test_case "summary basics" `Quick summary_basics;
          Alcotest.test_case "summary empty" `Quick summary_empty;
          Alcotest.test_case "timeweighted mean" `Quick timeweighted_mean;
          Alcotest.test_case "timeweighted monotone" `Quick timeweighted_rejects_backwards;
        ] );
      ( "properties",
        List.map Seeded.to_alcotest
          [ qcheck_engine_order; qcheck_heap_model; qcheck_engine_cancel ] );
    ]
