module G = Topo.Graph
module W = Netsim.World
module Seg = Viper.Segment
module Pkt = Viper.Packet
module C = Telemetry.Registry.Counter
module Flight = Telemetry.Flight

type t = {
  world : W.t;
  node : G.node_id;
  limiter : Congestion.t;
      (* hosts are rate-based sources: they honor Rate_ctl feedback by
         pacing their own injection (§2.2: the control "builds up back from
         the point of congestion to the sources") *)
  mutable on_receive : (t -> packet:Pkt.t -> in_port:G.port -> unit) option;
  received : C.t;
  misdelivered : C.t;
  mutable rate_signal : (Sim.Time.t * float) option;
}

let node t = t.node
let world t = t.world
let limiter t = t.limiter
let set_receive t f = t.on_receive <- Some f
let received t = C.value t.received
let misdelivered t = C.value t.misdelivered
let rate_signal t = t.rate_signal

let flight_drop t ~frame ~in_port ~reason =
  match frame.Netsim.Frame.flight with
  | Some ctx -> Flight.drop ctx ~node:t.node ~in_port ~now:(W.now t.world) ~reason
  | None -> ()

(* A packet that terminated here: count it, close its flight and hand it
   to [on_receive]. *)
let accept t ~frame ~in_port packet =
  C.incr t.received;
  (match frame.Netsim.Frame.flight with
  | Some ctx -> Flight.complete ctx ~now:(W.now t.world)
  | None -> ());
  match t.on_receive with
  | Some f -> f t ~packet ~in_port
  | None -> ()

let misdeliver t ~frame ~in_port =
  C.incr t.misdelivered;
  flight_drop t ~frame ~in_port ~reason:"misdelivered"

(* Hosts take delivery of the whole packet before acting. *)
let at_tail t ~tail f =
  Sim.Engine.schedule_at (W.engine t.world) ~time:(max (W.now t.world) tail) f

(* One arrival path for both codecs, after full reception. An XSR
   header is verified by {!Viper.Xsr.step} before it is unfolded into
   the [Pkt.t] [on_receive] expects, so [reply] rides the recorded
   reverse route over VIPER. A VIPER packet must have reached its last,
   local segment. Anything else is not for this host. *)
let arrive t ~frame ~in_port =
  let payload = frame.Netsim.Frame.payload in
  if frame.Netsim.Frame.aborted then flight_drop t ~frame ~in_port ~reason:"aborted"
  else if Viper.Xsr.is_xsr payload then
    match Viper.Xsr.step payload ~in_port with
    | Viper.Xsr.Deliver -> accept t ~frame ~in_port (Pkt.of_xsr payload)
    | Viper.Xsr.Forward _ | Viper.Xsr.Malformed _ -> misdeliver t ~frame ~in_port
  else
    match Pkt.parse payload with
    | Ok ({ Pkt.route = [ seg ]; _ } as packet) when seg.Seg.port = Seg.local_port ->
      accept t ~frame ~in_port packet
    | Ok _ | Error _ -> misdeliver t ~frame ~in_port

let handle t _world ~in_port ~frame ~head:_ ~tail =
  match frame.Netsim.Frame.meta with
  | Some (Congestion.Rate_ctl { congested_port; rate_bps }) ->
    t.rate_signal <- Some (W.now t.world, rate_bps /. 8.0);
    Congestion.handle_ctl t.limiter ~arrival_port:in_port ~congested_port ~rate_bps
  | Some _ -> ()
  | None -> at_tail t ~tail (fun () -> arrive t ~frame ~in_port)

let create ?(congestion = Congestion.default_config) world ~node =
  let limiter = Congestion.create world ~node congestion in
  let cnt ?help name =
    Telemetry.Registry.counter (W.metrics world) ?help
      ~labels:[ ("node", string_of_int node) ]
      ("host_" ^ name)
  in
  let t =
    {
      world;
      node;
      limiter;
      on_receive = None;
      received = cnt "received" ~help:"packets delivered to this host";
      misdelivered = cnt "misdelivered" ~help:"arrivals whose route did not terminate here";
      rate_signal = None;
    }
  in
  W.set_handler world node (handle t);
  Congestion.start limiter;
  t

(* Put [payload] on the wire out [port] through the host's limiter. The
   flight context is allocated where the packet enters the internetwork,
   before any limiter hold. A packet the limiter admits at once is sent
   without a closure; a held one is queued in the limiter and reports
   [Queued], unless the limiter releases it on the spot. *)
let inject t ~port ~next_port ~priority ~drop_if_blocked payload =
  let flight = Flight.start (W.flight t.world) ~now:(W.now t.world) in
  let bytes = Bytes.length payload in
  if Congestion.admit t.limiter ~out_port:port ~next_port ~bytes then
    W.send t.world ~node:t.node ~port
      (W.fresh_frame t.world ~priority ~drop_if_blocked ?flight payload)
  else begin
    let result = ref W.Queued in
    Congestion.hold t.limiter ~out_port:port ~next_port ~bytes ~send:(fun () ->
        result :=
          W.send t.world ~node:t.node ~port
            (W.fresh_frame t.world ~priority ~drop_if_blocked ?flight payload));
    !result
  end

let send t ~route ?(priority = Token.Priority.normal) ?(drop_if_blocked = false)
    ~data () =
  let segments = route.Route.segments in
  let payload = Pkt.build_stamped ~priority ~dib:drop_if_blocked ~route:segments ~data in
  let next_port =
    match segments with seg :: _ -> Some seg.Seg.port | [] -> None
  in
  inject t ~port:route.Route.first_port ~next_port ~priority ~drop_if_blocked
    payload

(* Fold [route] into a constant-size XSR header instead of a VIPER
   segment list: bytes-on-wire stay [Xsr.header_size] + data regardless
   of hop count, and every router on the path takes the zero-copy XSR
   fast path. The destination still sees an ordinary [Pkt.t] and can
   [reply] over VIPER via the accumulated reverse lanes. *)
let send_xsr t ~route ?(priority = Token.Priority.normal)
    ?(drop_if_blocked = false) ~data () =
  let ports = Route.ports route in
  let payload = Viper.Xsr.encode ~priority ~ports ~data () in
  let next_port = match ports with p :: _ -> Some p | [] -> None in
  inject t ~port:route.Route.first_port ~next_port ~priority ~drop_if_blocked
    payload

let reply t ~to_packet ~in_port ?(priority = Token.Priority.normal) ~data () =
  let back = Pkt.return_route to_packet in
  let local = Seg.make ~priority ~port:Seg.local_port () in
  let segments = back @ [ local ] in
  let payload = Pkt.build ~route:segments ~data in
  let flight = Flight.start (W.flight t.world) ~now:(W.now t.world) in
  let frame = W.fresh_frame t.world ~priority ?flight payload in
  W.send t.world ~node:t.node ~port:in_port frame

let explode t ~routes ?(priority = Token.Priority.normal) ~data () =
  List.fold_left
    (fun sent route ->
      match send t ~route ~priority ~data () with
      | W.Started | W.Started_preempting _ | W.Queued -> sent + 1
      | W.Dropped_blocked | W.Dropped_overflow | W.Dropped_no_link -> sent)
    0 routes
