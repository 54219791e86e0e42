(* Clocks, allocation counters and the boundary spans of the traced pass.

   Every timing in the ledger reads the same monotonic nanosecond clock
   (bechamel's [clock_gettime] stub: unboxed, allocation-free), so a span
   costs two clock reads and two minor-heap counter reads and allocates
   nothing. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let seconds_since t0 = float_of_int (now_ns () - t0) *. 1e-9

(* Words allocated by this domain so far, each counted once: a word that
   survives a minor collection is counted by [minor_words] when allocated
   and again by [major_words] when promoted, so the promoted words are
   subtracted. The minor collection first settles the counters, which
   otherwise lag by whatever the next collection will promote; with it a
   pass's words repeat exactly for a given seed. *)
let words () =
  Gc.minor ();
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let[@inline] minor () = int_of_float (Gc.minor_words ())

(* {1 Spans} *)

type span = { mutable count : int; mutable ns : int; mutable words : int }

let span () = { count = 0; ns = 0; words = 0 }

let[@inline] record sp ~ns ~words =
  sp.count <- sp.count + 1;
  sp.ns <- sp.ns + ns;
  sp.words <- sp.words + words

(* Open a span with [let t0 = now_ns () in let w0 = minor () in], make the
   call, then close it. *)
let[@inline] close sp ~t0 ~w0 =
  let w1 = minor () in
  let t1 = now_ns () in
  record sp ~ns:(t1 - t0) ~words:(w1 - w0)

(* Re-install [router]'s frame handler on [world] inside [sp]. *)
let wrap_router sp world router =
  let handle = Sirpent.Router.handle_frame router in
  Netsim.World.set_handler world (Sirpent.Router.node router) (fun w ~in_port ~frame ~head ~tail ->
      let t0 = now_ns () in
      let w0 = minor () in
      handle w ~in_port ~frame ~head ~tail;
      close sp ~t0 ~w0)

(* What the probes themselves cost, measured on empty spans: [in_*] is
   the part a span reports as its own duration, [total_*] the whole cost
   per span including what falls outside it. A span's net time is its
   raw time minus [in_ns] per call; the residual (run time not covered by
   any span) must also lose [total_ns - in_ns] per span, i.e. the run's
   probe cost is [count * total_ns] in all. *)
type cost = { in_ns : float; in_words : float; total_ns : float; total_words : float }

let calibrate_once n =
  let sp = span () in
  let w_start = minor () in
  let t_start = now_ns () in
  for _ = 1 to n do
    let t0 = now_ns () in
    let w0 = minor () in
    close sp ~t0 ~w0
  done;
  let t_end = now_ns () in
  let w_end = minor () in
  let per x = float_of_int x /. float_of_int n in
  {
    in_ns = per sp.ns;
    in_words = per sp.words;
    total_ns = per (t_end - t_start);
    total_words = per (w_end - w_start);
  }

(* Median of several calibrations, field by field. *)
let calibrate () =
  let runs = List.init 7 (fun _ -> calibrate_once 200_000) in
  let med f = Stats.median (List.map f runs) in
  {
    in_ns = med (fun c -> c.in_ns);
    in_words = med (fun c -> c.in_words);
    total_ns = med (fun c -> c.total_ns);
    total_words = med (fun c -> c.total_words);
  }

let net_ns cost sp = float_of_int sp.ns -. (float_of_int sp.count *. cost.in_ns)
let net_words cost sp = float_of_int sp.words -. (float_of_int sp.count *. cost.in_words)

(* Net time and words per closed span; 0 when the span never ran. *)
let ns_per_call cost sp = Stats.ratio (net_ns cost sp) (float_of_int sp.count)
let words_per_call cost sp = Stats.ratio (net_words cost sp) (float_of_int sp.count)

(* Run time and words that no span covers, with every probe's full cost
   removed. *)
let residual cost ~wall_ns ~run_words spans =
  let ns = List.fold_left (fun acc sp -> acc -. net_ns cost sp) wall_ns spans in
  let words = List.fold_left (fun acc sp -> acc -. net_words cost sp) run_words spans in
  let probes = float_of_int (List.fold_left (fun acc sp -> acc + sp.count) 0 spans) in
  (ns -. (probes *. cost.total_ns), words -. (probes *. cost.total_words))
