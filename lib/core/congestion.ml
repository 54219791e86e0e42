module G = Topo.Graph
module W = Netsim.World
module C = Telemetry.Registry.Counter

type config = {
  queue_threshold : int;
  release_threshold : int;
  feeder_share : float;
  limiter_expiry : Sim.Time.t;
  ramp_factor : float;
  ramp_after : Sim.Time.t;
  max_rate_factor : float;
}

let check_interval = Sim.Time.ms 5
let min_rate_bps = 64_000.0
let burst_window_s = 0.005

(* token-bucket depth floor *)
let min_burst_bits = 24_000.0

(* a limiter re-installed within this time of its own expiry counts as
   one backpressure oscillation (congestion_oscillations) *)
let flap_window = Sim.Time.ms 200

(* simulated size of a rate-control message *)
let ctl_frame_bytes = 16

(* The seed constants as first documented: no hysteresis (release =
   threshold), 90% feeder share, short expiry, unclamped ramp. E22 measures
   every hostile scenario against these. *)
let untuned_config =
  {
    queue_threshold = 8;
    release_threshold = 8;
    feeder_share = 0.9;
    limiter_expiry = Sim.Time.ms 100;
    ramp_factor = 1.25;
    ramp_after = Sim.Time.ms 5;
    max_rate_factor = infinity;
  }

(* E22's closed-loop winner (bench/e22_adversarial.ml): hysteresis keeps
   feeders refreshed until the queue genuinely drains, the share leaves
   just enough headroom to bleed the standing queue without idling the
   trunk, expiry outlives the threshold->release drain so sustained
   overload never cycles limiters, and the ramp is clamped at line rate. *)
let default_config =
  {
    untuned_config with
    release_threshold = 0;
    feeder_share = 0.93;
    limiter_expiry = Sim.Time.ms 250;
    ramp_after = Sim.Time.ms 15;
    max_rate_factor = 1.0;
  }

type Netsim.Frame.meta +=
  | Rate_ctl of { congested_port : int; rate_bps : float }

(* A limiter's rate and token count. A record of floats only is stored
   flat, so updating it per frame boxes nothing. *)
type bucket = { mutable rate_bps : float; mutable bits : float }

type limiter = {
  bucket : bucket;
  mutable last_refill : Sim.Time.t;
  mutable last_signal : Sim.Time.t;
  pending : (Netsim.Frame.t * (unit -> unit)) Queue.t;  (* (frame, send) *)
  mutable drain_at : Sim.Time.t;
  mutable drain_seq : int;  (* with [drain_at], the pending drain's key; -1 if none *)
}

(* The tables below are keyed by a pair of ports packed into one int,
   so a lookup builds no tuple. Each side is offset by one into 9 bits,
   which packs ports -1..255 on either side one to one; -1 is in range
   because a rate-control message may name it as its congested port. *)
let key a b =
  if a < -1 || a > 255 || b < -1 || b > 255 then
    invalid_arg "Congestion: port outside -1..255";
  ((a + 1) lsl 9) lor (b + 1)

let key_fst k = (k lsr 9) - 1
let key_snd k = (k land 0x1FF) - 1

type t = {
  world : W.t;
  node : G.node_id;
  config : config;
  limiters : (int, limiter) Hashtbl.t;  (* key out_port next_port *)
  mutable arrivals : bool;  (* a packet arrived since the last monitor pass *)
  feeders : (int, Sim.Time.t) Hashtbl.t;
      (* key out_port in_port -> last seen. Unlike [arrivals], which clears
         every interval, this remembers feeders for a full limiter_expiry:
         a throttled feeder trickling less than one packet per interval
         must still be refreshed, or its limiter ramps back up and
         re-floods the queue between the signals it happens to catch. *)
  known_out_ports : (int, unit) Hashtbl.t;
  congested : (int, unit) Hashtbl.t;
      (* out ports inside the hysteresis band: signalled, not yet drained
         to release_threshold *)
  recent_off : (int, Sim.Time.t) Hashtbl.t;
      (* limiter key -> expiry time, for oscillation detection *)
  mutable started : bool;
  mutable tick_armed : bool;
  ctl_sent : C.t;
  ctl_received : C.t;
  osc : C.t;
  crash_drops : C.t;
}

let create world ~node config =
  if config.release_threshold > config.queue_threshold then
    invalid_arg "Congestion.create: release_threshold > queue_threshold";
  let cnt ?help name =
    Telemetry.Registry.counter (W.metrics world) ?help
      ~labels:[ ("node", string_of_int node) ]
      ("congestion_" ^ name)
  in
  {
    world;
    node;
    config;
    limiters = Hashtbl.create 8;
    arrivals = false;
    feeders = Hashtbl.create 16;
    known_out_ports = Hashtbl.create 8;
    congested = Hashtbl.create 4;
    recent_off = Hashtbl.create 8;
    started = false;
    tick_armed = false;
    ctl_sent = cnt "ctl_sent" ~help:"rate-control frames sent to feeders";
    ctl_received = cnt "ctl_received";
    osc =
      cnt "oscillations"
        ~help:"limiters re-installed within flap_window of their own expiry";
    crash_drops = cnt "crash_drops" ~help:"limiter-held packets lost to a crash";
  }

(* --- token-bucket limiters --- *)

(* inlined, so the per-frame [refill] boxes no float *)
let[@inline] burst_bits lim =
  Float.max min_burst_bits (lim.bucket.rate_bps *. burst_window_s)

let refill t lim =
  let now = W.now t.world in
  (* [Sim.Time.to_seconds], written out for the same reason *)
  let dt = float_of_int (now - lim.last_refill) /. 1e9 in
  let b = lim.bucket in
  b.bits <- Float.min (burst_bits lim) (b.bits +. (b.rate_bps *. dt));
  lim.last_refill <- now

let rec drain t lim =
  refill t lim;
  match Queue.peek_opt lim.pending with
  | None -> ()
  | Some (frame, send) ->
    let bits = float_of_int (Netsim.Frame.bits frame) in
    if lim.bucket.bits >= bits then begin
      ignore (Queue.pop lim.pending);
      lim.bucket.bits <- lim.bucket.bits -. bits;
      send ();
      drain t lim
    end
    else if lim.drain_seq < 0 then begin
      let wait_s = (bits -. lim.bucket.bits) /. Float.max 1.0 lim.bucket.rate_bps in
      let engine = W.engine t.world in
      lim.drain_at <- W.now t.world + max 1 (Sim.Time.of_seconds wait_s);
      lim.drain_seq <- Sim.Engine.alloc_seq engine;
      Sim.Engine.schedule_keyed engine ~time:lim.drain_at ~seq:lim.drain_seq (fun () ->
          lim.drain_seq <- -1;
          drain t lim)
    end

let cancel_drain t lim =
  if lim.drain_seq >= 0 then begin
    Sim.Engine.cancel (W.engine t.world) ~time:lim.drain_at ~seq:lim.drain_seq;
    lim.drain_seq <- -1
  end

(* The rate may have been raised (ramp or a fresh signal) since a drain was
   scheduled from the old, lower rate: re-evaluate the wait so a held
   packet never over-waits on a stale schedule. *)
let reschedule_drain t lim =
  cancel_drain t lim;
  drain t lim

(* The second half of a frame's limiter key: the port the next router
   forwards it on, read in place from either codec's header. *)
let next_port { Netsim.Frame.payload; off; len; _ } = Viper.Packet.next_port payload ~off ~len

let admit t ~out_port frame =
  Hashtbl.length t.limiters = 0
  ||
  let next_port = next_port frame in
  next_port < 0
  ||
  match Hashtbl.find t.limiters (key out_port next_port) with
    | exception Not_found -> true
    | lim ->
      refill t lim;
      let bits = float_of_int (Netsim.Frame.bits frame) in
      if Queue.is_empty lim.pending && lim.bucket.bits >= bits then begin
        lim.bucket.bits <- lim.bucket.bits -. bits;
        true
      end
      else false

(* only after [admit] said no, so the limiter is there *)
let hold t ~out_port frame ~send =
  let lim = Hashtbl.find t.limiters (key out_port (next_port frame)) in
  Queue.push (frame, send) lim.pending;
  drain t lim

(* --- the periodic monitor --- *)

let limiter_backlog_for t out_port =
  Hashtbl.fold
    (fun k lim acc ->
      if key_fst k = out_port then acc + Queue.length lim.pending else acc)
    t.limiters 0

let capacity_bps t port =
  match G.link_via (W.graph t.world) t.node port with
  | Some l -> float_of_int l.G.props.G.bandwidth_bps
  | None -> 0.0

(* Ramp ceiling for a limiter: the local out link's capacity times the
   configured factor. An unlinked port (or factor = infinity) leaves the
   ramp unclamped. *)
let rate_ceiling t out_port =
  let cap = capacity_bps t out_port in
  if cap > 0.0 then cap *. t.config.max_rate_factor else infinity

let signal_feeders t out_port =
  let now = W.now t.world in
  let feeders =
    Hashtbl.fold
      (fun k seen acc ->
        if key_fst k = out_port && now - seen <= t.config.limiter_expiry then
          key_snd k :: acc
        else acc)
      t.feeders []
    |> List.sort_uniq compare
  in
  match feeders with
  | [] -> ()
  | _ ->
    let n = List.length feeders in
    let rate =
      Float.max min_rate_bps
        (capacity_bps t out_port *. t.config.feeder_share /. float_of_int n)
    in
    List.iter
      (fun in_port ->
        let frame =
          W.fresh_frame t.world ~priority:Token.Priority.highest
            ~meta:(Rate_ctl { congested_port = out_port; rate_bps = rate })
            (Bytes.create ctl_frame_bytes)
        in
        C.incr t.ctl_sent;
        ignore (W.send t.world ~node:t.node ~port:in_port frame))
      feeders

let ramp_and_expire t =
  let now = W.now t.world in
  let stale =
    Hashtbl.fold
      (fun k lim acc ->
        if
          now - lim.last_signal > t.config.limiter_expiry
          && Queue.is_empty lim.pending
        then k :: acc
        else begin
          (* ramp only after a genuinely quiet spell: while the congested
             router keeps refreshing (every check_interval), the rate must
             hold, or idle gaps between bursts wind the limiter back to
             line rate and the next burst lands unthrottled *)
          if now - lim.last_signal > t.config.ramp_after then begin
            lim.bucket.rate_bps <-
              Float.min (rate_ceiling t (key_fst k))
                (lim.bucket.rate_bps *. t.config.ramp_factor);
            if not (Queue.is_empty lim.pending) then reschedule_drain t lim
          end;
          acc
        end)
      t.limiters []
  in
  List.iter
    (fun k ->
      Telemetry.Events.emit (W.events t.world) ~time:now
        (Telemetry.Events.Backpressure_off
           { node = t.node; in_port = key_fst k; congested_port = key_snd k });
      Hashtbl.replace t.recent_off k now;
      Hashtbl.remove t.limiters k)
    stale

let monitor t =
  ramp_and_expire t;
  Hashtbl.iter
    (fun out_port () ->
      let depth =
        W.queue_length t.world ~node:t.node ~port:out_port
        + limiter_backlog_for t out_port
      in
      if depth > t.config.queue_threshold then begin
        Hashtbl.replace t.congested out_port ();
        signal_feeders t out_port
      end
      else if Hashtbl.mem t.congested out_port then begin
        (* hysteresis: keep refreshing the feeders until the queue has
           genuinely drained, so limiters are not allowed to expire and
           slam back the moment the depth dips below the threshold *)
        if depth > t.config.release_threshold then signal_feeders t out_port
        else Hashtbl.remove t.congested out_port
      end)
    t.known_out_ports;
  let now = W.now t.world in
  let stale_feeders =
    Hashtbl.fold
      (fun k seen acc ->
        if now - seen > t.config.limiter_expiry then k :: acc else acc)
      t.feeders []
  in
  List.iter (Hashtbl.remove t.feeders) stale_feeders;
  let stale_off =
    Hashtbl.fold
      (fun k off acc -> if now - off > flap_window then k :: acc else acc)
      t.recent_off []
  in
  List.iter (Hashtbl.remove t.recent_off) stale_off;
  t.arrivals <- false

(* The monitor goes quiescent when there is nothing to watch, so idle hosts
   and routers do not keep the event queue alive forever; any new arrival or
   control message re-arms it. [arrivals] clears each interval, so
   [known_out_ports] is cleared once a port has been idle for a full
   interval. *)
let rec ensure_tick t =
  if t.started && not t.tick_armed then begin
    t.tick_armed <- true;
    Sim.Engine.schedule (W.engine t.world) ~delay:check_interval (fun () ->
        t.tick_armed <- false;
        tick t)
  end

and tick t =
  let had_traffic = t.arrivals in
  monitor t;
  if had_traffic || Hashtbl.length t.limiters > 0 || Hashtbl.length t.congested > 0
  then ensure_tick t
  else begin
    Hashtbl.reset t.known_out_ports;
    Hashtbl.reset t.feeders
    (* recent_off is deliberately kept across quiescence: a limiter that
       expires on the monitor's last tick must still count as a flap if
       the next burst reinstalls it within flap_window. Entries age out
       in [monitor]. *)
  end

let note_arrival t ~in_port ~out_port =
  Hashtbl.replace t.known_out_ports out_port ();
  t.arrivals <- true;
  Hashtbl.replace t.feeders (key out_port in_port) (W.now t.world);
  ensure_tick t

let handle_ctl t ~arrival_port ~congested_port ~rate_bps =
  C.incr t.ctl_received;
  let k = key arrival_port congested_port in
  let now = W.now t.world in
  (match Hashtbl.find_opt t.limiters k with
  | Some lim ->
    refill t lim;
    let old_rate = lim.bucket.rate_bps in
    lim.bucket.rate_bps <- rate_bps;
    (* a rate cut also shrinks the bucket: the invariant
       bucket.bits <= burst_bits holds at every observation point *)
    lim.bucket.bits <- Float.min lim.bucket.bits (burst_bits lim);
    lim.last_signal <- now;
    if rate_bps > old_rate && not (Queue.is_empty lim.pending) then
      reschedule_drain t lim
  | None ->
    (match Hashtbl.find_opt t.recent_off k with
    | Some off when now - off <= flap_window ->
      (* backpressure slammed back on right after expiring: the on/off
         oscillation the hysteresis and expiry tuning are meant to kill *)
      C.incr t.osc;
      Telemetry.Events.emit (W.events t.world) ~time:now
        (Telemetry.Events.Backpressure_flap
           { node = t.node; in_port = arrival_port; congested_port })
    | Some _ | None -> ());
    Hashtbl.remove t.recent_off k;
    Telemetry.Events.emit (W.events t.world) ~time:now
      (Telemetry.Events.Backpressure_on
         { node = t.node; in_port = arrival_port; congested_port; rate_bps });
    Hashtbl.replace t.limiters k
      {
        bucket = { rate_bps; bits = 0.0 };
        last_refill = now;
        last_signal = now;
        pending = Queue.create ();
        drain_at = 0;
        drain_seq = -1;
      });
  ensure_tick t

let start t =
  if not t.started then t.started <- true

(* Crash support: every structure here is soft state the paper says a
   router may lose and rebuild on use — limiters (held packets are lost
   with the crash), feeder windows, monitored/congested ports, flap
   history. Returns the held frames. *)
let reset t =
  let held =
    Hashtbl.fold
      (fun _ lim acc ->
        cancel_drain t lim;
        Queue.fold (fun acc (frame, _) -> frame :: acc) acc lim.pending)
      t.limiters []
  in
  Hashtbl.reset t.limiters;
  t.arrivals <- false;
  Hashtbl.reset t.feeders;
  Hashtbl.reset t.known_out_ports;
  Hashtbl.reset t.congested;
  Hashtbl.reset t.recent_off;
  C.add t.crash_drops (List.length held);
  held

let backlog t =
  Hashtbl.fold (fun _ lim acc -> acc + Queue.length lim.pending) t.limiters 0

let limiters t = Hashtbl.length t.limiters

let bucket_level t ~out_port ~next_port =
  match Hashtbl.find_opt t.limiters (key out_port next_port) with
  | None -> None
  | Some lim ->
    refill t lim;
    Some (lim.bucket.bits, burst_bits lim)

let ctl_sent t = C.value t.ctl_sent
let oscillations t = C.value t.osc
