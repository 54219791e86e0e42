module G = Topo.Graph
module W = Netsim.World
module Seg = Viper.Segment
module Pkt = Viper.Packet
module C = Telemetry.Registry.Counter
module Flight = Telemetry.Flight

type blocked_handling =
  | Buffer
  | Delay_line of { delay : Sim.Time.t; max_circuits : int }

type config = {
  store_and_forward : bool;
  require_tokens : bool;
  token_policy : Token.Cache.miss_policy;
  congestion : Congestion.config option;
  blocked : blocked_handling;
}

(* switch decision and setup: "significantly less than a microsecond"
   (§6.1) *)
let decision_time = Sim.Time.ns 500

(* per-packet software processing, applied on the store-and-forward path
   and to local delivery *)
let process_time = Sim.Time.us 50

(* token decryption and check latency, paid off the fast path *)
let verify_time = Sim.Time.us 200

let default_config =
  {
    store_and_forward = false;
    require_tokens = false;
    token_policy = Token.Cache.Optimistic;
    congestion = None;
    blocked = Buffer;
  }

type stats = {
  forwarded : int;
  delivered_local : int;
  parse_errors : int;
  dropped_malformed : int;
  dropped_down : int;
  crashes : int;
  unauthorized : int;
  deferred : int;
  truncated : int;
  multicast_copies : int;
  spliced : int;
  send_drops : int;
  cut_throughs : int;
  stored_forwards : int;
  delay_line_circuits : int;  (** re-circulations of blocked packets *)
  inheader_failovers : int;  (** switches onto an in-header branch route *)
}

(* The scoreboard: row [i] is a [router_*] counter on the world's metrics
   registry, labeled by node, [t.counters.(i)] is its cell, and {!stats}
   reads every row into one record. Rows register in index order, the
   order snapshots and exports list them in. *)
let inheader_failovers = 0
let delay_line_circuits = 1
let stored_forwards = 2
let cut_throughs = 3
let send_drops = 4
let spliced = 5
let multicast_copies = 6
let truncated = 7
let deferred = 8
let unauthorized = 9
let crashes = 10
let dropped_down = 11
let dropped_malformed = 12
let parse_errors = 13
let delivered_local = 14
let forwarded = 15

let rows =
  [|
    ("inheader_failovers", "packets switched onto an in-header branch route");
    ("delay_line_circuits", "");
    ("stored_forwards", "");
    ("cut_throughs", "");
    ("send_drops", "drops at the output port after switching");
    ("spliced", "");
    ("multicast_copies", "");
    ("truncated", "");
    ("deferred", "packets held for blocking token verification");
    ("unauthorized", "token check rejections");
    ("crashes", "");
    ("dropped_down", "frames arriving while crashed");
    ("dropped_malformed", "");
    ("parse_errors", "");
    ("delivered_local", "");
    ("forwarded", "packets handed to an output port");
  |]

type role =
  | Group of G.port list
  | Splice of Seg.t list
  | Members of G.port list
  | Handler of (buf:bytes -> off:int -> len:int -> hdr:int -> in_port:G.port -> bool)

(* The act steps a router has posted and not yet run, one slot each,
   kept as data in two arrays: slot [s]'s frames at [2s] (the arriving
   frame) and [2s + 1] (what goes out, when that is not the arriving
   frame itself) of [frames], its ints at [act_ints * s] of [ints]. A
   slot's cells are written when its act step is posted, and its frames
   cleared when it runs, so a free slot's frame cells are vacant. *)
type acts = {
  slab : Sim.Slab.t;
  mutable frames : Netsim.Frame.t array;
  mutable ints : int array;
}

(* a slot's ints, by offset *)
let act_tail = 0
let act_in_port = 1
let act_out_port = 2
let act_priority = 3
let act_dib = 4
let act_epoch = 5  (* the router's epoch when it was posted *)
let act_ints = 6

type t = {
  world : W.t;
  node : G.node_id;
  config : config;
  cache : Token.Cache.t;
  ledger : Token.Account.t;
  congestion : Congestion.t option;
  (* port-indexed, one cell per port value once a role is set; [None]
     where the port is plain *)
  mutable roles : role option array;
  mutable up : bool;
  mutable epoch : int;  (** bumped on crash: pending deferred work dies with it *)
  counters : C.t array;  (** one per scoreboard row *)
  verify_failures : C.t Lazy.t;
      (** [router_verify_failures], registered on the first failure *)
  acts : acts;
  mutable act_kind : Sim.Engine.kind;
}

let bump t row = C.incr t.counters.(row)
let node t = t.node
let cache t = t.cache
let ledger t = t.ledger
let congestion t = t.congestion

let stats t : stats =
  let v row = C.value t.counters.(row) in
  {
    forwarded = v forwarded;
    delivered_local = v delivered_local;
    parse_errors = v parse_errors;
    dropped_malformed = v dropped_malformed;
    dropped_down = v dropped_down;
    crashes = v crashes;
    unauthorized = v unauthorized;
    deferred = v deferred;
    truncated = v truncated;
    multicast_copies = v multicast_copies;
    spliced = v spliced;
    send_drops = v send_drops;
    cut_throughs = v cut_throughs;
    stored_forwards = v stored_forwards;
    delay_line_circuits = v delay_line_circuits;
    inheader_failovers = v inheader_failovers;
  }

let role_at t port = if port < Array.length t.roles then t.roles.(port) else None

let set_port t ~port role =
  (match role with
  | Handler _ when port < 1 || port >= Seg.multicast_port_first ->
    invalid_arg "Router.set_port: a handler's port must be 1-239"
  | Members _ when port < Seg.multicast_port_first || port >= Viper.Multicast.tree_port ->
    invalid_arg "Router.set_port: a multicast group's port must be 240-253"
  | Group [] | Splice [] -> invalid_arg "Router.set_port: empty group or splice"
  | (Group _ | Splice _) when port < 1 || port > Seg.broadcast_port ->
    invalid_arg "Router.set_port: a logical port must be 1-255"
  | Group _ | Splice _ | Members _ | Handler _ -> ());
  if Array.length t.roles = 0 then t.roles <- Array.make (Seg.broadcast_port + 1) None;
  t.roles.(port) <- Some role

let now t = W.now t.world

(* Every way a router loses a packet: the fate's [router_*] row, if it
   has one (an aborted act step is a send drop), then the world's count. *)
let drop t ~frame ~in_port (fate : Flight.fate) =
  (match fate with
  | Malformed -> bump t dropped_malformed
  | Down -> bump t dropped_down
  | Parse_error -> bump t parse_errors
  | Unauthorized -> bump t unauthorized
  | Truncated -> bump t truncated
  | Send_drop | Aborted -> bump t send_drops
  | Misdelivered | Purged | Preempted | No_handler | Handler_error -> ());
  W.lose t.world ~node:t.node ~in_port frame fate

let flight_note ~frame check =
  match frame.Netsim.Frame.flight with
  | Some ctx -> Flight.note_token ctx check
  | None -> ()

(* Clamp to the present: deferred work (e.g. token verification) can leave a
   cut-through act time in the past. *)
let clamp t time = Int.max time (now t)

(* The router's one closure event, for its cold paths: delay-line
   retries, token verification, local delivery and handler ports. The
   per-hop act step is an event of the router's own kind ({!dispatch}). *)
let schedule t ~time f = Sim.Engine.schedule_at (W.engine t.world) ~time:(clamp t time) f

let live t epoch = t.up && t.epoch = epoch

(* Deferred work on [frame]'s packet. Work deferred before a crash must
   not run after it — the crash wiped the state it would act on — so it
   is bound to the router's current epoch, and a crash that voids it
   purges the packet. *)
let defer t ~frame ~in_port ~time f =
  let epoch = t.epoch in
  schedule t ~time (fun () -> if live t epoch then f () else drop t ~frame ~in_port Purged)

(* The MTU of the link on [port]; a port with no link has none to
   exceed. *)
let port_mtu t port =
  match G.link_at (W.graph t.world) t.node port with
  | l -> l.G.props.G.mtu
  | exception Not_found -> max_int

(* The input link's rate when a frame from [in_port] may cut through to
   [out_port] — both links up with equal rates, on a router that does
   not store and forward — and 0 when it must be stored first. *)
let cut_through_rate t ~in_port ~out_port =
  if t.config.store_and_forward then 0
  else
    let g = W.graph t.world in
    match (G.link_at g t.node in_port, G.link_at g t.node out_port) with
    | i, o ->
      let rate = i.G.props.G.bandwidth_bps in
      if rate = o.G.props.G.bandwidth_bps then rate else 0
    | exception Not_found -> 0

(* The instant forwarding may begin: after the header has been received
   plus the switching decision for cut-through, or after the whole
   packet plus software processing otherwise. *)
let act_time ~cut_rate ~head ~tail ~header_size =
  if cut_rate > 0 then
    head
    + Sim.Time.transmission ~bits:(8 * header_size) ~rate_bps:cut_rate
    + decision_time
  else tail + process_time

let count_send_result t ~frame ~in_port result =
  match result with
  | W.Started | W.Started_preempting _ | W.Queued -> bump t forwarded
  | W.Dropped_blocked | W.Dropped_overflow | W.Dropped_no_link ->
    drop t ~frame ~in_port Send_drop

(* A new frame for a window the router made, riding [frame]'s flight. *)
let copy_frame ~frame payload ~len =
  { frame with Netsim.Frame.payload; off = 0; len; meta = None; aborted = false }

(* The record that carries [out] (the arriving [frame] after an in-place
   hop, or a copy's own frame) onto the next link. The arriving record
   itself goes on once the world has released it: at [tail] its
   transmission is over, so no preemption or purge upstream can mark it
   aborted any more. Before that (cut-through on a slow link) a fresh
   record takes the same window, so the upstream's [aborted] flag still
   reaches only this router. *)
let out_frame t ~frame ~out ~tail ~priority ~dib =
  let out =
    if out == frame && (now t < tail || Option.is_some frame.Netsim.Frame.meta) then
      { frame with Netsim.Frame.meta = None; aborted = false }
    else out
  in
  out.Netsim.Frame.priority <- priority;
  out.Netsim.Frame.drop_if_blocked <- dib;
  out

(* Hand [out] to [out_port] now. *)
let transmit t ~priority ~dib ~frame ~out ~tail ~in_port ~out_port =
  match t.config.blocked with
  | Buffer ->
    count_send_result t ~frame ~in_port
      (W.send t.world ~node:t.node ~port:out_port
         (out_frame t ~frame ~out ~tail ~priority ~dib))
  | Delay_line { delay; max_circuits } ->
    (* §2.1: a bufferless (Blazenet-style) switch re-circulates a
       blocked packet through a delay line instead of queueing it *)
    let rec attempt circuits =
      let o = out_frame t ~frame ~out ~tail ~priority ~dib:true in
      match W.send t.world ~node:t.node ~port:out_port o with
      | W.Dropped_blocked when circuits < max_circuits && not dib ->
        bump t delay_line_circuits;
        defer t ~frame ~in_port ~time:(now t + delay) (fun () -> attempt (circuits + 1))
      | result -> count_send_result t ~frame ~in_port result
    in
    attempt 0

(* Transmit [out] out [out_port] at [when_], through any congestion
   limiter for its queue (the limiter reads its own key). The act step
   is an event of the router's kind whose payload is a slot in
   [t.acts]; it carries the crash-epoch guard of {!defer}. A [send]
   closure is built only when a limiter holds the packet. *)
let dispatch t ~priority ~dib ~frame ~out ~tail ~in_port ~out_port ~when_ =
  let a = t.acts in
  let s = Sim.Slab.take a.slab in
  if Array.length a.ints < act_ints * Sim.Slab.capacity a.slab then begin
    a.frames <- Sim.Slab.fit a.slab ~per_slot:2 a.frames Netsim.Frame.vacant;
    a.ints <- Sim.Slab.fit a.slab ~per_slot:act_ints a.ints 0
  end;
  a.frames.(2 * s) <- frame;
  if out != frame then a.frames.((2 * s) + 1) <- out;
  let i = act_ints * s in
  a.ints.(i + act_tail) <- tail;
  a.ints.(i + act_in_port) <- in_port;
  a.ints.(i + act_out_port) <- out_port;
  a.ints.(i + act_priority) <- priority;
  a.ints.(i + act_dib) <- Bool.to_int dib;
  a.ints.(i + act_epoch) <- t.epoch;
  Sim.Engine.post_at (W.engine t.world) ~time:(clamp t when_) ~kind:t.act_kind s

(* The act step in slot [s]: its frames leave the slab before anything
   else, so no frame stays alive past its hop. *)
let act t s =
  let a = t.acts in
  let frame = a.frames.(2 * s) and copy = a.frames.((2 * s) + 1) in
  let out = if copy == Netsim.Frame.vacant then frame else copy in
  let i = act_ints * s in
  let tail = a.ints.(i + act_tail) and in_port = a.ints.(i + act_in_port) in
  let out_port = a.ints.(i + act_out_port) and priority = a.ints.(i + act_priority) in
  let dib = a.ints.(i + act_dib) = 1 and epoch = a.ints.(i + act_epoch) in
  a.frames.(2 * s) <- Netsim.Frame.vacant;
  if copy != Netsim.Frame.vacant then a.frames.((2 * s) + 1) <- Netsim.Frame.vacant;
  Sim.Slab.release a.slab s;
  if not (live t epoch) then drop t ~frame ~in_port Purged
  else if frame.Netsim.Frame.aborted then drop t ~frame ~in_port Aborted
  else
    match t.congestion with
    | Some c when not (Congestion.admit c ~out_port out) ->
      Congestion.hold c ~out_port out ~send:(fun () ->
          transmit t ~priority ~dib ~frame ~out ~tail ~in_port ~out_port)
    | Some _ | None -> transmit t ~priority ~dib ~frame ~out ~tail ~in_port ~out_port

(* Switch [out] out [out_port]: decide cut-through or store-and-forward,
   count it, record the hop, tell the congestion monitor, and schedule
   the act step. *)
let switch t ~frame ~out ~in_port ~out_port ~head ~tail ~header_size ~priority ~dib =
  let cut_rate = cut_through_rate t ~in_port ~out_port in
  let when_ = act_time ~cut_rate ~head ~tail ~header_size in
  let handling =
    if cut_rate > 0 then begin
      bump t cut_throughs;
      Flight.Cut_through
    end
    else begin
      bump t stored_forwards;
      Flight.Store_forward
    end
  in
  (match frame.Netsim.Frame.flight with
  | Some ctx ->
    Flight.hop ctx ~node:t.node ~in_port ~out_port ~arrival:head
      ~departure:when_ ~handling
  | None -> ());
  (match t.congestion with
  | Some c -> Congestion.note_arrival c ~in_port ~out_port
  | None -> ());
  dispatch t ~priority ~dib ~frame ~out ~tail ~in_port ~out_port ~when_

(* The hop into a fresh window, with room for the rest of the route. *)
let hop_copy ~frame buf ~off ~len ~hdr ~in_port ~keep_token ~info ~rlen =
  let room = Pkt.tailroom_in buf ~off:(off + hdr) ~len:(len - hdr) in
  let dst = Bytes.create (Int.max 0 (len - hdr + rlen + 3) + room) in
  copy_frame ~frame dst
    ~len:
      (Viper.Trailer.append_return_hop buf ~off ~len ~pos:hdr ~port:in_port ~keep_token
         ~info dst ~at:0)

(* The header a cut-through switch waits for: the segment's encoded
   size, which is its [hdr] wire bytes unless a field's length was
   written extended without need. *)
let header_size buf ~off ~hdr =
  if Char.code (Bytes.get buf off) < 255 && Char.code (Bytes.get buf (off + 1)) < 255
  then hdr
  else Seg.encoded_size (Seg.decode_sub buf ~off ~len:hdr)

(* The hop of §2 on the window [buf.[off] .. buf.[off + len - 1]], whose
   leading segment is [hdr] bytes: strip it and append its return hop to
   the trailer. In place, when [buf] is the frame's own and has the
   tailroom: the frame's head advances and the return hop is written
   past its end, so the packet is neither copied nor re-framed. A copy
   ([copy]: one of several multicast copies), an injected packet (its
   bytes are the caller's) or a buffer without the room gets a fresh
   window. *)
let forward_one t ~frame ~buf ~off ~len ~hdr ~in_port ~in_info ~out_port ~head ~tail
    ~reverse_ok ~copy =
  let keep_token = reverse_ok in
  let rlen = Seg.return_hop_size buf ~off ~port:in_port ~keep_token ~info:in_info in
  let priority = Seg.peek_priority buf ~off in
  let dib = (Seg.peek_flags buf ~off).Seg.dib in
  let in_place =
    (not copy) && buf == frame.Netsim.Frame.payload && Option.is_none in_info
    && off + len + rlen + 3 <= Bytes.length buf
  in
  (* The loopback append reads the trailer framing; on a frame whose
     trailer was damaged in flight it fails — a counted drop, not an
     exception out of the frame handler. *)
  match
    if in_place then begin
      let len =
        Viper.Trailer.append_return_hop buf ~off ~len ~pos:hdr ~port:in_port ~keep_token
          ~info:in_info buf ~at:(off + hdr)
      in
      frame.Netsim.Frame.off <- off + hdr;
      frame.Netsim.Frame.len <- len;
      frame
    end
    else hop_copy ~frame buf ~off ~len ~hdr ~in_port ~keep_token ~info:in_info ~rlen
  with
  | exception (Invalid_argument _ | Failure _ | Wire.Buf.Underflow | Wire.Buf.Overflow)
    ->
    drop t ~frame ~in_port Malformed
  | out ->
    let mtu = port_mtu t out_port in
    let out =
      if out.Netsim.Frame.len > mtu then begin
        bump t truncated;
        (* the marker and the fresh trailer take 5 bytes *)
        let { Netsim.Frame.payload; off; len; _ } = out in
        let cut = Pkt.truncate_to payload ~off ~len ~max:(mtu - 5) in
        copy_frame ~frame cut ~len:(Bytes.length cut)
      end
      else out
    in
    switch t ~frame ~out ~in_port ~out_port ~head ~tail
      ~header_size:(header_size buf ~off ~hdr) ~priority ~dib

(* A reverse-path packet (RPF flag) is checked against its arrival port:
   that is the port its token originally named, and reverse_ok in the
   grant decides admission (§2.2's reverse-route authorization). *)
let auth_port ~rpf ~in_port ~out_port = if rpf then in_port else out_port

let reject t ~frame ~in_port =
  flight_note ~frame Flight.Denied;
  drop t ~frame ~in_port Unauthorized

(* Decrypt [token] in the background so subsequent packets hit the
   cache. The packet that carried it has already gone on (or been
   dropped), so a forged token is counted here, not as a fate. *)
let verify_in_background t ~token =
  let epoch = t.epoch in
  schedule t ~time:(now t + verify_time) (fun () ->
      let now_ms = now t / 1_000_000 in
      if live t epoch && not (Token.Cache.complete_verification t.cache ~token ~now_ms)
      then C.incr (Lazy.force t.verify_failures))

(* Blocking authentication of a deferred frame: hold the packet while the
   token is decrypted, then re-check; [proceed ~reverse_ok] switches it. *)
let verify_then t ~token ~rpf ~priority ~frame ~in_port ~out_port ~packet_bytes ~proceed =
  defer t ~frame ~in_port
    ~time:(now t + verify_time)
    (fun () ->
      let now_ms = now t / 1_000_000 in
      if Token.Cache.complete_verification t.cache ~token ~now_ms then begin
        match
          Token.Cache.check t.cache ~token
            ~port:(auth_port ~rpf ~in_port ~out_port) ~priority
            ~now_ms ~packet_bytes ~reverse:rpf
        with
        | Token.Cache.Admit g ->
          flight_note ~frame Flight.Cache_miss;
          proceed ~reverse_ok:g.Token.Capability.reverse_ok
        | Token.Cache.Deny | Token.Cache.Defer | Token.Cache.Miss_admit
        | Token.Cache.Miss_drop ->
          reject t ~frame ~in_port
      end
      else reject t ~frame ~in_port)

(* Authorize the leading segment for its own port, then forward out
   [out_port] (a logical group's chosen member, or the same port). The
   segment's fields, its token included, are read where they lie; the
   token is copied only on a miss, for the verification that keeps it.
   Each verdict does its side effects (flight note, counters, background
   verification) and forwards or rejects. Each arm calls [forward_one]
   itself: a local forwarding helper would allocate a closure per frame,
   so one is built only for [Defer]. *)
let authorized_forward t ~frame ~buf ~off ~len ~hdr ~in_port ~in_info ~out_port ~head
    ~tail =
  let token_len = Seg.token_len buf ~off in
  if token_len = 0 then begin
    if t.config.require_tokens then reject t ~frame ~in_port
    else begin
      flight_note ~frame Flight.No_token;
      forward_one t ~frame ~buf ~off ~len ~hdr ~in_port ~in_info ~out_port ~head ~tail
        ~reverse_ok:true ~copy:false
    end
  end
  else
    let rpf = (Seg.peek_flags buf ~off).Seg.rpf in
    let priority = Seg.peek_priority buf ~off in
    let auth_out = Seg.peek_port buf ~off in
    let token_off = Seg.token_off buf ~off in
    match
      Token.Cache.check_window t.cache buf ~off:token_off ~len:token_len
        ~port:(auth_port ~rpf ~in_port ~out_port:auth_out) ~priority
        ~now_ms:(now t / 1_000_000) ~packet_bytes:len ~reverse:rpf
    with
    | Token.Cache.Admit g ->
      flight_note ~frame Flight.Cache_hit;
      forward_one t ~frame ~buf ~off ~len ~hdr ~in_port ~in_info ~out_port ~head ~tail
        ~reverse_ok:g.Token.Capability.reverse_ok ~copy:false
    | Token.Cache.Deny -> reject t ~frame ~in_port
    | Token.Cache.Miss_admit ->
      (* Optimistic: forward now, decrypt in the background. *)
      verify_in_background t ~token:(Bytes.sub buf token_off token_len);
      flight_note ~frame Flight.Cache_miss;
      forward_one t ~frame ~buf ~off ~len ~hdr ~in_port ~in_info ~out_port ~head ~tail
        ~reverse_ok:true ~copy:false
    | Token.Cache.Defer ->
      bump t deferred;
      verify_then t ~token:(Bytes.sub buf token_off token_len) ~rpf ~priority ~frame
        ~in_port ~out_port:auth_out ~packet_bytes:len ~proceed:(fun ~reverse_ok ->
          forward_one t ~frame ~buf ~off ~len ~hdr ~in_port ~in_info ~out_port ~head
            ~tail ~reverse_ok ~copy:false)
    | Token.Cache.Miss_drop ->
      (* dropped, but "in any case, the new token is decrypted, checked and
         cached to prepare for subsequent packets" *)
      reject t ~frame ~in_port;
      verify_in_background t ~token:(Bytes.sub buf token_off token_len)

let all_ports_except t ~except =
  List.filter_map
    (fun (p, _) -> if p = except then None else Some p)
    (G.ports (W.graph t.world) t.node)

(* A packet copied to [n] ports or branches is [n] packets: [n - 1] more
   to account for, and with none at all it is lost where it stands. *)
let copies t ~frame ~in_port n =
  if n = 0 then drop t ~frame ~in_port Send_drop
  else W.originate_copies t.world (n - 1)

(* The window's remainder past its [hdr]-byte leading segment, behind
   the segments [write] puts first: the writer's store is the new
   window. *)
let prepend buf ~off ~len ~hdr ~write =
  let w = Wire.Buf.create_writer (len - hdr + 64) in
  write w;
  Wire.Buf.put_sub w buf (off + hdr) (len - hdr);
  w

(* The packet is the window [buf.[off] .. buf.[off + len - 1]]: the
   frame's own window, or one a slow path made. Its leading segment is
   read in place, its extent found with exactly a full read's verdict. *)
let rec process t ~frame ~buf ~off ~len ~in_port ~in_info ~head ~tail ~depth =
  if depth > 4 then drop t ~frame ~in_port Parse_error
  else
    match Seg.extent_to buf ~off ~stop:(off + len) with
    | exception (Wire.Buf.Underflow | Wire.Buf.Overflow | Invalid_argument _ | Failure _)
      ->
      (* A frame damaged in flight (or truncated by preemption) must become
         a counted drop, never an exception out of the frame handler. *)
      drop t ~frame ~in_port Malformed
    | hdr ->
      let port = Seg.peek_port buf ~off in
      if port = Seg.local_port then
        deliver_local t ~frame ~buf ~off ~len ~in_port ~tail ~xsr:false
      else begin
        match role_at t port with
        | Some (Handler f) ->
          (* custom port (e.g. an interop tunnel): hand over after full
             reception, like any store-and-forward boundary — unless the
             upstream transmission was preempted and this is a runt *)
          defer t ~frame ~in_port
            ~time:(Int.max (now t) tail + process_time)
            (fun () ->
              if frame.Netsim.Frame.aborted then drop t ~frame ~in_port Aborted
              else if not (f ~buf ~off ~len ~hdr ~in_port) then
                drop t ~frame ~in_port Malformed
              else ignore (W.hand_off t.world frame))
        | Some (Group physical) ->
          let best = choose_least_queued t physical in
          authorized_forward t ~frame ~buf ~off ~len ~hdr ~in_port ~in_info
            ~out_port:best ~head ~tail
        | Some (Splice expansion) ->
          bump t spliced;
          (* the expansion stands in for this segment: VNT on its last
             segment iff this one had it *)
          let last_vnt = Seg.peek_vnt buf ~off in
          let w =
            prepend buf ~off ~len ~hdr ~write:(fun w -> Seg.write_route w ~last_vnt expansion)
          in
          process t ~frame ~buf:(Wire.Buf.store w) ~off:0 ~len:(Wire.Buf.writer_length w)
            ~in_port ~in_info ~head ~tail ~depth:(depth + 1)
        | Some (Members ports) ->
          multicast t ~frame ~buf ~off ~len ~hdr ~in_port ~in_info ~head ~tail ~ports
        | None ->
          if port = Seg.broadcast_port then
            multicast t ~frame ~buf ~off ~len ~hdr ~in_port ~in_info ~head ~tail
              ~ports:(all_ports_except t ~except:in_port)
          else if port = Viper.Multicast.tree_port then
            tree_multicast t ~frame ~buf ~off ~len ~hdr ~in_port ~in_info ~head ~tail
              ~depth
          (* a multicast group port with no members configured *)
          else if Seg.is_multicast_port port then drop t ~frame ~in_port Parse_error
          else if
            Seg.peek_branch buf ~off && G.link_via (W.graph t.world) t.node port = None
          then begin
            (* Slick-Packets failover: the addressed link is down, but the
               segment carries an alternate route from this router onward.
               Substitute it for the rest of the sold route, mark the
               trailer so the receiver knows the path actually taken, and
               re-switch locally — no directory round trip. *)
            let branch = (Seg.decode_sub buf ~off ~len:hdr).Seg.branch in
            match Pkt.substitute_route_branch buf ~off ~len ~route:branch with
            | exception
                ( Invalid_argument _ | Failure _ | Wire.Buf.Underflow
                | Wire.Buf.Overflow ) ->
              drop t ~frame ~in_port Malformed
            | payload' ->
              bump t inheader_failovers;
              Telemetry.Events.emit (W.events t.world) ~time:(now t)
                (Telemetry.Events.Inheader_failover { node = t.node; port });
              process t ~frame ~buf:payload' ~off:0 ~len:(Bytes.length payload') ~in_port
                ~in_info ~head ~tail ~depth:(depth + 1)
          end
          else
            authorized_forward t ~frame ~buf ~off ~len ~hdr ~in_port ~in_info
              ~out_port:port ~head ~tail
      end

and choose_least_queued t ports =
  match ports with
  | [] -> invalid_arg "Router: empty port group"
  | first :: _ ->
    let load p =
      (if W.port_busy t.world ~node:t.node ~port:p then 1 else 0)
      + W.queue_length t.world ~node:t.node ~port:p
    in
    List.fold_left
      (fun best p -> if load p < load best then p else best)
      first ports

and multicast t ~frame ~buf ~off ~len ~hdr ~in_port ~in_info ~head ~tail ~ports =
  copies t ~frame ~in_port (List.length ports);
  List.iter
    (fun out_port ->
      bump t multicast_copies;
      forward_one t ~frame ~buf ~off ~len ~hdr ~in_port ~in_info ~out_port ~head ~tail
        ~reverse_ok:true ~copy:true)
    ports

and tree_multicast t ~frame ~buf ~off ~len ~hdr ~in_port ~in_info ~head ~tail ~depth =
  match Viper.Multicast.decode_branches (Seg.decode_sub buf ~off ~len:hdr).Seg.info with
  | exception _ -> drop t ~frame ~in_port Malformed
  | branches ->
    copies t ~frame ~in_port (List.length branches);
    List.iter
      (fun branch ->
        bump t multicast_copies;
        let w = prepend buf ~off ~len ~hdr ~write:(fun w -> List.iter (Seg.write w) branch) in
        process t ~frame ~buf:(Wire.Buf.store w) ~off:0 ~len:(Wire.Buf.writer_length w)
          ~in_port ~in_info ~head ~tail ~depth:(depth + 1))
      branches

(* A packet addressed to the router itself must still arrive whole: a
   VIPER window passes the arrival check in place ({!Pkt.intact}), and a
   malformed one is a counted drop. An XSR packet ([xsr]) arrives whole
   once {!Viper.Xsr.step} has answered [Deliver] for it. *)
and deliver_local t ~frame ~buf ~off ~len ~in_port ~tail ~xsr =
  defer t ~frame ~in_port
    ~time:(Int.max (now t) tail + process_time)
    (fun () ->
      (* aborted before delivery: a fate, but not a send drop *)
      if frame.Netsim.Frame.aborted then
        W.lose t.world ~node:t.node ~in_port frame Aborted
      else if not (xsr || Pkt.intact buf ~off ~len) then drop t ~frame ~in_port Malformed
      else begin
        bump t delivered_local;
        (match frame.Netsim.Frame.flight with
        | Some ctx ->
          Flight.hop ctx ~node:t.node ~in_port ~out_port:(-1) ~arrival:tail
            ~departure:(now t) ~handling:Flight.Local_delivery
        | None -> ());
        W.complete t.world frame
      end)

(* The XSR header's step: one check-byte verify, one XOR, an in-place
   header mutation — and the very same buffer goes back out (zero
   copies, zero allocations per hop) through the same switch and local
   delivery as VIPER. XSR headers carry no tokens, so a router that
   requires them rejects XSR traffic outright. *)
let process_xsr t ~frame ~in_port ~head ~tail =
  if t.config.require_tokens then reject t ~frame ~in_port
  else
    let payload = Netsim.Frame.contents frame and len = frame.Netsim.Frame.len in
    match Viper.Xsr.step payload ~in_port with
    | Viper.Xsr.Malformed _ -> drop t ~frame ~in_port Malformed
    | Viper.Xsr.Deliver ->
      deliver_local t ~frame ~buf:payload ~off:0 ~len ~in_port ~tail ~xsr:true
    | Viper.Xsr.Forward out_port ->
      (* constant-size headers cannot carry a truncation marker, so an
         over-MTU XSR packet is a counted drop, not a graceful cut *)
      if len > port_mtu t out_port then drop t ~frame ~in_port Truncated
      else
        let out =
          if payload == frame.Netsim.Frame.payload then frame
          else copy_frame ~frame payload ~len
        in
        switch t ~frame ~out ~in_port ~out_port ~head ~tail
          ~header_size:Viper.Xsr.header_size
          ~priority:(Viper.Xsr.priority payload) ~dib:false

let handle t _world ~in_port ~frame ~head ~tail =
  if not t.up then drop t ~frame ~in_port Down
  else
    match frame.Netsim.Frame.meta with
    | Some (Congestion.Rate_ctl { congested_port; rate_bps }) -> (
      match t.congestion with
      | Some c -> Congestion.handle_ctl c ~arrival_port:in_port ~congested_port ~rate_bps
      | None -> ())
    | Some _ | None ->
      let { Netsim.Frame.payload = buf; off; len; _ } = frame in
      if Viper.Xsr.is_xsr_in buf ~off ~len then process_xsr t ~frame ~in_port ~head ~tail
      else process t ~frame ~buf ~off ~len ~in_port ~in_info:None ~head ~tail ~depth:0

let create ?(config = default_config) ?key world ~node () =
  let key =
    match key with Some k -> k | None -> Token.Cipher.random_looking_key node
  in
  let ledger = Token.Account.create () in
  let congestion =
    Option.map (fun c -> Congestion.create world ~node c) config.congestion
  in
  let labels = [ ("node", string_of_int node) ] in
  let t =
    {
      world;
      node;
      config;
      cache =
        Token.Cache.create ~key ~router_id:node ~policy:config.token_policy ~ledger;
      ledger;
      congestion;
      roles = [||];
      up = true;
      epoch = 0;
      counters =
        Array.map
          (fun (name, help) ->
            Telemetry.Registry.counter (W.metrics world) ~help ~labels
              ("router_" ^ name))
          rows;
      verify_failures =
        lazy
          (Telemetry.Registry.counter (W.metrics world)
             ~help:"background token verifications that failed" ~labels
             "router_verify_failures");
      acts = { slab = Sim.Slab.create (); frames = [||]; ints = [||] };
      act_kind = Sim.Engine.closure_kind;
    }
  in
  t.act_kind <- Sim.Engine.register (W.engine world) (act t);
  W.set_handler world node (handle t);
  Option.iter Congestion.start congestion;
  t

let inject t ~buf ~off ~len ~in_port ~return_info =
  (* the packet has not entered this world yet, so it has no fate here *)
  if not t.up then bump t dropped_down
  else begin
    let flight = W.originate t.world in
    (match flight with
    | Some ctx ->
      (* out-of-band arrival: the injection itself is the first span *)
      Flight.hop ctx ~node:t.node ~in_port ~out_port:(-1) ~arrival:(now t)
        ~departure:(now t) ~handling:Flight.Injected
    | None -> ());
    let frame = W.fresh_frame t.world ?flight buf in
    frame.Netsim.Frame.off <- off;
    frame.Netsim.Frame.len <- len;
    process t ~frame ~buf ~off ~len ~in_port ~in_info:(Some return_info) ~head:(now t)
      ~tail:(now t) ~depth:0
  end

let handle_frame t = handle t
let act_kind t = t.act_kind

(* §6.3: routers hold only soft state, so a crash loses queued frames and
   caches but nothing a restart cannot rebuild from subsequent traffic. *)
let crash t =
  if t.up then begin
    t.up <- false;
    t.epoch <- t.epoch + 1;
    bump t crashes;
    let lost = W.purge_node t.world ~node:t.node in
    (* the congestion controller's limiters, windows and congested-port
       marks are soft state too: they die with the crash, and packets held
       in limiters are as lost as queued frames *)
    let held =
      match t.congestion with Some c -> Congestion.reset c | None -> []
    in
    List.iter (fun frame -> drop t ~frame ~in_port:(-1) Purged) held;
    Telemetry.Events.emit (W.events t.world) ~time:(now t)
      (Telemetry.Events.Router_crashed
         { node = t.node; frames_lost = lost + List.length held });
    Token.Cache.flush t.cache
  end

let restart t =
  if not t.up then
    Telemetry.Events.emit (W.events t.world) ~time:(now t)
      (Telemetry.Events.Router_restarted { node = t.node });
  t.up <- true

let up t = t.up
