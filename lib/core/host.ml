module G = Topo.Graph
module W = Netsim.World
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
  (* the frames waiting for their tail, one slot each: the payload of an
     arrival event *)
  arrivals : Sim.Slab.t;
  mutable arriving : Netsim.Frame.t array;
  mutable arriving_port : G.port array;
  mutable arrival : Sim.Engine.kind;
}

let node t = t.node
let world t = t.world
let arrival_kind t = t.arrival
let limiter t = t.limiter
let set_receive t f = t.on_receive <- Some f
let received t = C.value t.received
let misdelivered t = C.value t.misdelivered

(* A packet that terminated here: count it, close its flight and hand it
   to [on_receive]. *)
let accept t ~frame ~in_port packet =
  C.incr t.received;
  W.complete t.world frame;
  match t.on_receive with
  | Some f -> f t ~packet ~in_port
  | None -> ()

let misdeliver t ~frame ~in_port =
  C.incr t.misdelivered;
  W.lose t.world ~node:t.node ~in_port frame Flight.Misdelivered

(* One arrival path for both codecs, after full reception, checked where
   the packet lies. An XSR header is verified by {!Viper.Xsr.step}
   before it is unfolded into the [Pkt.t] [on_receive] expects, so
   [reply] rides the recorded reverse route over VIPER. A VIPER packet
   must pass {!Pkt.of_window}, the in-place {!Pkt.parse}, and have
   reached its last, local segment. Anything else is not for this
   host. *)
let arrive t ~frame ~in_port =
  let { Netsim.Frame.payload; off; len; _ } = frame in
  if frame.Netsim.Frame.aborted then
    W.lose t.world ~node:t.node ~in_port frame Flight.Aborted
  else if Viper.Xsr.is_xsr_in payload ~off ~len then
    let payload = Netsim.Frame.contents frame in
    match Viper.Xsr.step payload ~in_port with
    | Viper.Xsr.Deliver -> accept t ~frame ~in_port (Pkt.of_xsr payload)
    | Viper.Xsr.Forward _ | Viper.Xsr.Malformed _ -> misdeliver t ~frame ~in_port
  else
    match Pkt.of_window payload ~off ~len with
    | Ok packet when Pkt.terminates packet -> accept t ~frame ~in_port packet
    | Ok _ | Error _ -> misdeliver t ~frame ~in_port

(* The arrival event in [slot]: the frame leaves the slab, then
   arrives. *)
let arrive_slot t slot =
  let frame = t.arriving.(slot) and in_port = t.arriving_port.(slot) in
  t.arriving.(slot) <- Netsim.Frame.vacant;
  Sim.Slab.release t.arrivals slot;
  arrive t ~frame ~in_port

(* Hosts take delivery of the whole packet before acting. *)
let at_tail t ~tail ~frame ~in_port =
  let slot = Sim.Slab.take t.arrivals in
  if Array.length t.arriving < Sim.Slab.capacity t.arrivals then begin
    t.arriving <- Sim.Slab.fit t.arrivals t.arriving Netsim.Frame.vacant;
    t.arriving_port <- Sim.Slab.fit t.arrivals t.arriving_port 0
  end;
  t.arriving.(slot) <- frame;
  t.arriving_port.(slot) <- in_port;
  Sim.Engine.post_at (W.engine t.world) ~time:(Int.max (W.now t.world) tail)
    ~kind:t.arrival slot

let handle t _world ~in_port ~frame ~head:_ ~tail =
  match frame.Netsim.Frame.meta with
  | Some (Congestion.Rate_ctl { congested_port; rate_bps }) ->
    Congestion.handle_ctl t.limiter ~arrival_port:in_port ~congested_port ~rate_bps
  | Some _ -> ()
  | None -> at_tail t ~tail ~frame ~in_port

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
      arrivals = Sim.Slab.create ();
      arriving = [||];
      arriving_port = [||];
      arrival = Sim.Engine.closure_kind;
    }
  in
  t.arrival <- Sim.Engine.register (W.engine world) (arrive_slot t);
  W.set_handler world node (handle t);
  Congestion.start limiter;
  t

(* A frame over [payload] whose window is [len] bytes from [off]. *)
let frame ~priority ~drop_if_blocked ~flight ~off ~len payload =
  { Netsim.Frame.payload; off; len; priority; drop_if_blocked; meta = None; flight;
    aborted = false }

(* Send a packet this host originated out [port]; a refusal at the port
   is the packet's end. *)
let transmit t ~port frame =
  let result = W.send t.world ~node:t.node ~port frame in
  (match result with
  | W.Dropped_blocked | W.Dropped_overflow | W.Dropped_no_link ->
    W.lose t.world ~node:t.node ~in_port:(-1) frame Flight.Send_drop
  | W.Started | W.Started_preempting _ | W.Queued -> ());
  result

(* Put [frame] on the wire out [port] through the host's limiter, which
   keys it by the queue the first router sends it to, as routers key
   theirs. The packet has been originated where it enters the
   internetwork, before any limiter hold. A packet the limiter admits at
   once is sent without a closure; a held one is queued in the limiter
   and reports [Queued], unless the limiter releases it on the spot. *)
let inject t ~port frame =
  if Congestion.admit t.limiter ~out_port:port frame then transmit t ~port frame
  else begin
    let result = ref W.Queued in
    Congestion.hold t.limiter ~out_port:port frame ~send:(fun () ->
        result := transmit t ~port frame);
    !result
  end

let trailer_bytes = Bytes.length Viper.Trailer.empty

(* The buffer is built once, with room for every return hop its routers
   will append (see {!Netsim.Frame}): no router copies it. The data's
   room ends where the empty trailer starts, [tailroom + 3] bytes before
   the buffer's end ({!Pkt.reserve_stamped}). *)
let reserve ~route ~priority ~drop_if_blocked ~len =
  let segments = route.Route.segments in
  let tailroom = Pkt.tailroom segments in
  let payload =
    Pkt.reserve_stamped ~tailroom ~priority ~dib:drop_if_blocked ~route:segments ~len
  in
  frame ~priority ~drop_if_blocked ~flight:None
    ~off:(Bytes.length payload - tailroom - trailer_bytes - len)
    ~len payload

let reserve_reply ~to_packet ~priority ~len =
  match Pkt.reserve_reply to_packet ~priority ~len with
  | Error e -> Error e
  | Ok (payload, off) ->
    Ok (frame ~priority ~drop_if_blocked:false ~flight:None ~off ~len payload)

(* A reserved frame's window becomes the whole packet, from the
   buffer's start (the route) through the empty trailer after the data,
   and the packet is originated. *)
let seal t frame =
  frame.Netsim.Frame.len <- frame.Netsim.Frame.off + frame.len + trailer_bytes;
  frame.off <- 0;
  frame.flight <- W.originate t.world

let commit t ~route frame =
  seal t frame;
  inject t ~port:route.Route.first_port frame

(* A reply is not paced by the limiter; a packet that cannot be answered
   has no frame, so starts no flight. *)
let commit_reply t ~in_port frame =
  seal t frame;
  transmit t ~port:in_port frame

let send t ~route ?(priority = Token.Priority.normal) ?(drop_if_blocked = false)
    ~data () =
  let len = Bytes.length data in
  let frame = reserve ~route ~priority ~drop_if_blocked ~len in
  Bytes.blit data 0 frame.Netsim.Frame.payload frame.off len;
  commit t ~route frame

(* Fold [route] into a constant-size XSR header instead of a VIPER
   segment list: bytes-on-wire stay [Xsr.header_size] + data regardless
   of hop count, and every router on the path takes the zero-copy XSR
   fast path. The destination still sees an ordinary [Pkt.t] and can
   [reply] over VIPER via the accumulated reverse lanes. *)
let send_xsr t ~route ?(priority = Token.Priority.normal)
    ?(drop_if_blocked = false) ~data () =
  let payload =
    Viper.Xsr.encode_segments ~priority ~segments:route.Route.segments ~data
  in
  let flight = W.originate t.world in
  inject t ~port:route.Route.first_port
    (frame ~priority ~drop_if_blocked ~flight ~off:0 ~len:(Bytes.length payload) payload)

let reply t ~to_packet ~in_port ?(priority = Token.Priority.normal) ~data () =
  let len = Bytes.length data in
  match reserve_reply ~to_packet ~priority ~len with
  | Error e -> Error e
  | Ok frame ->
    Bytes.blit data 0 frame.Netsim.Frame.payload frame.off len;
    Ok (commit_reply t ~in_port frame)

let explode t ~routes ?(priority = Token.Priority.normal) ~data () =
  List.fold_left
    (fun sent route ->
      match send t ~route ~priority ~data () with
      | W.Started | W.Started_preempting _ | W.Queued -> sent + 1
      | W.Dropped_blocked | W.Dropped_overflow | W.Dropped_no_link -> sent)
    0 routes
