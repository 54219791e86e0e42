module W = Netsim.World
module Wf = Wire_format
module C = Telemetry.Registry.Counter

type config = { clock_skew_ms : int; pace_bps : int }

let default_config = { clock_skew_ms = 0; pace_bps = 0 }

(* data bytes per packet: §5's "roughly 1 kilobyte transport packet" *)
let segment_bytes = 1024

(* initial RTO; adapted from measured RTT *)
let retransmit_timeout = Sim.Time.ms 100

(* retransmission rounds per route before failover *)
let max_retries = 3

(* receiver-side delay before nacking a gap *)
let gap_timeout = Sim.Time.ms 20

(* how long a server keeps a response for replay *)
let response_hold = Sim.Time.s 5

(* the maximum packet lifetime and the clock skew the MPL rule allows
   (§4.2) *)
let mpl_ms = 30_000
let skew_allowance_ms = 2_000

type stats = {
  packets_sent : int;
  retransmits : int;
  acks_sent : int;
  rejected_checksum : int;
  rejected_entity : int;
  rejected_old : int;
  duplicate_requests : int;
  route_switches : int;
  branch_arrivals : int;
  calls_completed : int;
  calls_failed : int;
}

(* Reassembly of one incoming packet group from [peer]. *)
type partial = {
  peer : int64;
  mutable chunks : bytes array;
      (** the group's packets by index, each the arrived transport packet
          whose data window is the chunk; [absent] where none has come *)
  mutable mask : int;
  mutable group_size : int;
  mutable gap_at : Sim.Time.t;
  mutable gap_seq : int;  (* with [gap_at], the gap timer's key; -1 if none *)
  mutable answered : bool;  (** a complete request: the handler has replied *)
}

(* A message this entity sends is kept as one private copy of the
   caller's bytes and the group's single timestamp; packet [i] is
   written from them into the wire buffer of each of its transmissions,
   so every transmission of it is byte-identical. *)
type call = {
  txn : int;
  server : int64;
  routes : Sirpent.Route.t array;
  mutable route_idx : int;
  priority : Token.Priority.t;
  request : bytes;  (** the request message, private *)
  request_group : int;
  request_stamp : int;
  mutable request_acked : int;
  mutable retries : int;
  mutable timer_at : Sim.Time.t;
  mutable timer_seq : int;  (* with [timer_at], the retransmit timer's key; -1 if none *)
  response : partial;
  started : Sim.Time.t;
  on_reply : bytes -> rtt:Sim.Time.t -> unit;
  on_fail : string -> unit;
  mutable finished : bool;
}

type held_response = {
  client : int64;
  held_txn : int;
  message : bytes;  (** the response message, private *)
  group : int;
  stamp : int;
  mutable via : Viper.Packet.t;  (** the request whose trailer is the way back *)
  mutable via_port : Topo.Graph.port;  (** where [via] arrived *)
  mutable expires : Sim.Time.t;
}

type t = {
  host : Sirpent.Host.t;
  config : config;
  id : int64;
  boot_ms : int;
  mutable next_txn : int;
  calls : (int, call) Hashtbl.t;  (* txn -> call *)
  partials : (int, partial) Hashtbl.t;  (* txn_key -> request *)
  held : (int, held_response) Hashtbl.t;  (* txn_key -> response *)
  mutable handler : (t -> data:bytes -> reply:(bytes -> unit) -> unit) option;
  mutable on_route_switch :
    (failed:Sirpent.Route.t -> route_index:int -> unit) option;
  mutable srtt : Sim.Time.t option;
  (* stats: registered on the world's telemetry registry, labeled by
     entity id; [stats] is a snapshot view *)
  packets_sent : C.t;
  retransmits : C.t;
  acks_sent : C.t;
  rejected_checksum : C.t;
  rejected_entity : C.t;
  rejected_old : C.t;
  duplicate_requests : C.t;
  route_switches : C.t;
  branch_arrivals : C.t;
  calls_completed : C.t;
  calls_failed : C.t;
}


let stats t : stats =
  {
    packets_sent = C.value t.packets_sent;
    retransmits = C.value t.retransmits;
    acks_sent = C.value t.acks_sent;
    rejected_checksum = C.value t.rejected_checksum;
    rejected_entity = C.value t.rejected_entity;
    rejected_old = C.value t.rejected_old;
    duplicate_requests = C.value t.duplicate_requests;
    route_switches = C.value t.route_switches;
    branch_arrivals = C.value t.branch_arrivals;
    calls_completed = C.value t.calls_completed;
    calls_failed = C.value t.calls_failed;
  }

let rtt_estimate t = t.srtt
let held_responses t = Hashtbl.length t.held
let set_request_handler t f = t.handler <- Some f
let set_route_switch_hook t f = t.on_route_switch <- Some f

let world t = Sirpent.Host.world t.host
let engine t = W.engine (world t)
let now t = W.now (world t)
let now_ms t = Mpl.wrap ((now t / 1_000_000) + t.config.clock_skew_ms)

let schedule t ~delay f = Sim.Engine.schedule (engine t) ~delay f

(* A timer: [f] scheduled at [time] under a freshly reserved seq, which
   is returned so the timer can be cancelled by its key. *)
let arm t ~time f =
  let seq = Sim.Engine.alloc_seq (engine t) in
  Sim.Engine.schedule_keyed (engine t) ~time ~seq f;
  seq

let cancel t ~time ~seq = if seq >= 0 then Sim.Engine.cancel (engine t) ~time ~seq

(* [partials] and [held] are keyed by one int: the low 31 bits of the
   client's id above the 32-bit transaction. Clients whose ids agree in
   those bits share a key, so an entry keeps the full id and a lookup
   takes the binding whose id is the client's. *)
let txn_key ~client ~txn = ((Int64.to_int client land 0x7FFFFFFF) lsl 32) lor txn

let find_entry tbl ~client_of ~key client =
  let e = Hashtbl.find tbl key in
  if Int64.equal (client_of e) client then e
  else List.find (fun e -> Int64.equal (client_of e) client) (Hashtbl.find_all tbl key)

(* Remove [e], a binding of [key], leaving any other client's. *)
let remove_entry tbl ~key e =
  if Hashtbl.find tbl key == e then Hashtbl.remove tbl key
  else begin
    let others = List.filter (( != ) e) (Hashtbl.find_all tbl key) in
    List.iter (fun _ -> Hashtbl.remove tbl key) (e :: others);
    List.iter (Hashtbl.add tbl key) (List.rev others)
  end

let partial_peer p = p.peer
let held_client h = h.client

(* A nonzero creation timestamp: 0 means "invalid" on the wire (§4.2). *)
let stamp t = match now_ms t with 0 -> 1 | ms -> ms

(* The packet count of [message]'s group: one packet per
   [segment_bytes], and one for an empty message. *)
let group_of message =
  let group_size = max 1 ((Bytes.length message + segment_bytes - 1) / segment_bytes) in
  if group_size > Wf.max_group then invalid_arg "Vmtp: message too large for one group";
  group_size

let chunk_len message index =
  min segment_bytes (Bytes.length message - (index * segment_bytes))
let packet_len message index = Wf.header_size + chunk_len message index + Wf.trailer_size

(* Packet [index] of [message]'s group, written into the window of a
   reserved [frame]. *)
let write_packet t frame ~dst ~txn ~kind ~group_size ~stamp message index =
  Wf.encode_into frame.Netsim.Frame.payload ~at:frame.off ~src:t.id ~dst ~txn ~kind ~index
    ~group_size ~acks_response:false ~mask:0 ~timestamp_ms:stamp message
    ~off:(index * segment_bytes) ~len:(chunk_len message index)

(* The message of a complete group: each chunk blitted once, in index
   order, from its packet's data window. *)
let assemble partial =
  let chunks = partial.chunks in
  let message = Bytes.create (Array.fold_left (fun n p -> n + Wf.data_len p) 0 chunks) in
  let at = ref 0 in
  for i = 0 to Array.length chunks - 1 do
    let len = Wf.data_len chunks.(i) in
    Bytes.blit chunks.(i) Wf.header_size message !at len;
    at := !at + len
  done;
  message

(* Packet [index] of [call]'s request along [route]. *)
let send_request_packet t call ~route index =
  C.incr t.packets_sent;
  let frame =
    Sirpent.Host.reserve ~route ~priority:call.priority ~drop_if_blocked:false
      ~len:(packet_len call.request index)
  in
  write_packet t frame ~dst:call.server ~txn:call.txn ~kind:Wf.Request
    ~group_size:call.request_group ~stamp:call.request_stamp call.request index;
  ignore (Sirpent.Host.commit t.host ~route frame)

(* The pause after sending a packet of [bytes] before the group's
   next. *)
let gap_for t bytes =
  if t.config.pace_bps <= 0 then Sim.Time.ns 1
  else Sim.Time.transmission ~bits:(8 * bytes) ~rate_bps:t.config.pace_bps

let current_route call = call.routes.(call.route_idx)

(* Send the packets of the request group whose bits [skip] lacks, in
   index order, paced along the call's current route; the count
   sent. *)
let send_request_group t call ~skip =
  let route = current_route call in
  let delay = ref 0 and sent = ref 0 in
  for index = 0 to call.request_group - 1 do
    if not (Wf.mask_has skip index) then begin
      schedule t ~delay:!delay (fun () -> send_request_packet t call ~route index);
      delay := !delay + gap_for t (packet_len call.request index);
      incr sent
    end
  done;
  !sent

(* Count a packet sent back over the return route of [via] and reserve
   its frame, for [len] transport bytes. A damaged sample (truncated
   trailer, over-long return route) has no reply, so nothing is sent:
   it reads as a loss, and the peer retransmits and supplies a fresh
   return route. *)
let reply_via t ~via ~len =
  C.incr t.packets_sent;
  Sirpent.Host.reserve_reply ~to_packet:via ~priority:Token.Priority.normal ~len

(* Packet [index] of [held]'s response, back over the return route of
   the request it answers. *)
let send_response_packet t held index =
  match reply_via t ~via:held.via ~len:(packet_len held.message index) with
  | Error _ -> ()
  | Ok frame ->
    write_packet t frame ~dst:held.client ~txn:held.held_txn ~kind:Wf.Response
      ~group_size:held.group ~stamp:held.stamp held.message index;
    ignore (Sirpent.Host.commit_reply t.host ~in_port:held.via_port frame)

let send_response t held =
  for index = 0 to held.group - 1 do
    send_response_packet t held index
  done

(* A group's missing packets: a packet buffer is never empty. *)
let absent = Bytes.empty

let fresh_partial ~peer =
  {
    peer;
    chunks = Array.make 1 absent;
    mask = 0;
    group_size = 1;
    gap_at = 0;
    gap_seq = -1;
    answered = false;
  }

(* Keep the arrived packet [p] (not a copy of its data) in its place. *)
let partial_add partial p =
  let index = Wf.index p and group_size = Wf.group_size p in
  if Array.length partial.chunks < group_size then begin
    let fresh = Array.make group_size absent in
    Array.blit partial.chunks 0 fresh 0 (Array.length partial.chunks);
    partial.chunks <- fresh
  end;
  partial.group_size <- max partial.group_size group_size;
  if index < Array.length partial.chunks then partial.chunks.(index) <- p;
  partial.mask <- Wf.mask_with partial.mask index

let partial_complete partial =
  partial.group_size > 0
  && Array.length partial.chunks >= partial.group_size
  && (let complete = ref true in
      for i = 0 to partial.group_size - 1 do
        if partial.chunks.(i) == absent then complete := false
      done;
      !complete)

let update_rtt t sample =
  match t.srtt with
  | None -> t.srtt <- Some sample
  | Some s -> t.srtt <- Some ((7 * s / 8) + (sample / 8))

let rto t =
  match t.srtt with
  | None -> retransmit_timeout
  | Some s -> max (Sim.Time.ms 5) (2 * s)

(* Take an open call off the books; [false] if it had already
   finished. *)
let close_call t call =
  if call.finished then false
  else begin
    call.finished <- true;
    cancel t ~time:call.timer_at ~seq:call.timer_seq;
    cancel t ~time:call.response.gap_at ~seq:call.response.gap_seq;
    Hashtbl.remove t.calls call.txn;
    true
  end

let complete_call t call data =
  if close_call t call then begin
    C.incr t.calls_completed;
    let rtt = now t - call.started in
    update_rtt t rtt;
    call.on_reply data ~rtt
  end

let fail_call t call reason =
  if close_call t call then begin
    C.incr t.calls_failed;
    call.on_fail reason
  end

let rec arm_timer t call =
  cancel t ~time:call.timer_at ~seq:call.timer_seq;
  call.timer_at <- now t + rto t;
  call.timer_seq <-
    arm t ~time:call.timer_at (fun () ->
        call.timer_seq <- -1;
        if not call.finished then on_timeout t call)

and on_timeout t call =
  call.retries <- call.retries + 1;
  if call.retries > max_retries then begin
    (* Exhausted this route: fail over to the next one (§6.3). *)
    if call.route_idx + 1 < Array.length call.routes then begin
      let failed = current_route call in
      call.route_idx <- call.route_idx + 1;
      call.retries <- 0;
      C.incr t.route_switches;
      Telemetry.Events.emit (W.events (world t)) ~time:(now t)
        (Telemetry.Events.Route_failover
           { entity = t.id; route_index = call.route_idx });
      (match t.on_route_switch with
      | Some f -> f ~failed ~route_index:call.route_idx
      | None -> ());
      retransmit_request t call ~all:true;
      arm_timer t call
    end
    else fail_call t call "all routes exhausted"
  end
  else begin
    retransmit_request t call ~all:false;
    arm_timer t call
  end

(* Resend what the server has not acknowledged: the whole group when
   [all], or when it has acknowledged every packet. *)
and retransmit_request t call ~all =
  let full = Wf.mask_full call.request_group in
  let acked = call.request_acked land full in
  let skip = if all || acked = full then 0 else acked in
  C.add t.retransmits (send_request_group t call ~skip)

(* An ack is written straight into the buffer of the reply to [via]. *)
let send_ack t ~dst ~txn ~acks_response ~mask ~group_size ~via ~in_port =
  C.incr t.acks_sent;
  match reply_via t ~via ~len:(Wf.header_size + Wf.trailer_size) with
  | Error _ -> ()
  | Ok frame ->
    Wf.encode_into frame.Netsim.Frame.payload ~at:frame.off ~src:t.id ~dst ~txn
      ~kind:Wf.Ack ~index:0 ~group_size ~acks_response ~mask ~timestamp_ms:(stamp t)
      Bytes.empty ~off:0 ~len:0;
    ignore (Sirpent.Host.commit_reply t.host ~in_port frame)

(* [partial]'s gap timer, re-armed to run [f] [gap_timeout] from now;
   [f] clears [partial.gap_seq] when it runs. *)
let arm_gap_timer t partial f =
  cancel t ~time:partial.gap_at ~seq:partial.gap_seq;
  partial.gap_at <- now t + gap_timeout;
  partial.gap_seq <- arm t ~time:partial.gap_at f

(* ---- server side ---- *)

(* Drop the held response of [client]'s transaction at [key] once its
   deadline has passed; a duplicate request pushes the deadline later,
   and the expiry then re-arms at the new one. *)
let rec expire t ~key ~client () =
  match find_entry t.held ~client_of:held_client ~key client with
  | h when h.expires > now t -> schedule t ~delay:(h.expires - now t) (expire t ~key ~client)
  | h -> remove_entry t.held ~key h
  | exception Not_found -> ()

let respond t ~client ~txn ~via ~in_port data =
  let group = group_of data in
  let held =
    {
      client;
      held_txn = txn;
      message = Bytes.copy data;
      group;
      stamp = stamp t;
      via;
      via_port = in_port;
      expires = now t + response_hold;
    }
  in
  let key = txn_key ~client ~txn in
  (match find_entry t.held ~client_of:held_client ~key client with
  | old -> remove_entry t.held ~key old
  | exception Not_found -> ());
  Hashtbl.add t.held key held;
  schedule t ~delay:response_hold (expire t ~key ~client);
  send_response t held

(* Ask [partial.peer] for the request packets [partial] still lacks,
   over the return route of [via], the arrival that armed the timer:
   every later arrival re-arms it. *)
let nack_request t partial ~txn ~via ~in_port () =
  partial.gap_seq <- -1;
  send_ack t ~dst:partial.peer ~txn ~acks_response:false ~mask:partial.mask
    ~group_size:partial.group_size ~via ~in_port

(* The handler's [reply]: answer the complete request [partial] once,
   over the return route of [via], its last packet. *)
let reply_once t partial ~txn ~via ~in_port response =
  if not partial.answered then begin
    partial.answered <- true;
    respond t ~client:partial.peer ~txn ~via ~in_port response
  end

let handle_request t p ~via ~in_port =
  let client = Wf.src_entity p and txn = Wf.transaction p in
  let key = txn_key ~client ~txn in
  match find_entry t.held ~client_of:held_client ~key client with
  | held ->
    (* Duplicate of a completed transaction: replay the response over
       the duplicate's own return route (paper §4: the way back is the
       trailer of the packet that arrived). The first request's trailer
       may carry a damaged token or name a route that has since
       failed. *)
    C.incr t.duplicate_requests;
    held.expires <- now t + response_hold;
    held.via <- via;
    held.via_port <- in_port;
    send_response t held
  | exception Not_found ->
    let partial =
      match find_entry t.partials ~client_of:partial_peer ~key client with
      | partial -> partial
      | exception Not_found ->
        let partial = fresh_partial ~peer:client in
        Hashtbl.add t.partials key partial;
        partial
    in
    partial_add partial p;
    if partial_complete partial then begin
      cancel t ~time:partial.gap_at ~seq:partial.gap_seq;
      remove_entry t.partials ~key partial;
      let data = assemble partial in
      match t.handler with
      | Some f -> f t ~data ~reply:(reply_once t partial ~txn ~via ~in_port)
      | None -> ()
    end
    else arm_gap_timer t partial (nack_request t partial ~txn ~via ~in_port)

(* ---- client side ---- *)

(* Ask the server for the response packets the call still lacks, over
   the return route of [via], the arrival that armed the timer. *)
let nack_response t call ~via ~in_port () =
  let partial = call.response in
  partial.gap_seq <- -1;
  if not call.finished then
    send_ack t ~dst:call.server ~txn:call.txn ~acks_response:true ~mask:partial.mask
      ~group_size:partial.group_size ~via ~in_port

let handle_response t p ~via ~in_port =
  match Hashtbl.find t.calls (Wf.transaction p) with
  | exception Not_found -> ()
  | call ->
    let partial = call.response in
    partial_add partial p;
    if partial_complete partial then begin
      (* Completion ack lets the server drop its held response. *)
      send_ack t ~dst:call.server ~txn:call.txn ~acks_response:true
        ~mask:(Wf.mask_full partial.group_size) ~group_size:partial.group_size ~via
        ~in_port;
      complete_call t call (assemble partial)
    end
    else arm_gap_timer t partial (nack_response t call ~via ~in_port)

let handle_ack t p =
  let mask = Wf.delivery_mask p in
  if Wf.acks_response p then begin
    (* Report on a response group we hold as server. *)
    let client = Wf.src_entity p in
    let key = txn_key ~client ~txn:(Wf.transaction p) in
    match find_entry t.held ~client_of:held_client ~key client with
    | exception Not_found -> ()
    | held ->
      if mask = Wf.mask_full held.group then remove_entry t.held ~key held
      else
        for index = 0 to held.group - 1 do
          if not (Wf.mask_has mask index) then begin
            C.incr t.retransmits;
            send_response_packet t held index
          end
        done
  end
  else begin
    (* Report on our request group: selective retransmission. *)
    match Hashtbl.find t.calls (Wf.transaction p) with
    | exception Not_found -> ()
    | call ->
      call.request_acked <- call.request_acked lor mask;
      let full = Wf.mask_full call.request_group in
      if call.request_acked land full <> full then begin
        C.add t.retransmits (send_request_group t call ~skip:call.request_acked);
        arm_timer t call
      end
  end

let on_host_receive t _host ~packet ~in_port =
  let p = packet.Viper.Packet.data in
  (* Any undecodable transport payload is a corruption loss: count it and
     let the retransmit → route-failover ladder recover. *)
  if not (Wf.valid p) then C.incr t.rejected_checksum
  else if not (Int64.equal (Wf.dst_entity p) t.id) then C.incr t.rejected_entity
  else if
    not
      (Mpl.acceptable ~now_ms:(now_ms t) ~boot_ms:t.boot_ms ~mpl_ms ~skew_allowance_ms
         ~timestamp_ms:(Wf.timestamp_ms p))
  then C.incr t.rejected_old
  else begin
    (* The trailer tells us which recovery mechanism ran: a branch
       marker means a router failed over in-header, the counterpart of
       the client-side Route_failover re-query ladder. *)
    if Viper.Packet.took_branch packet then begin
      C.incr t.branch_arrivals;
      Telemetry.Events.emit
        (W.events (world t))
        ~time:(now t)
        (Telemetry.Events.Branch_arrival { entity = t.id })
    end;
    match Wf.kind p with
    | Wf.Request -> handle_request t p ~via:packet ~in_port
    | Wf.Response -> handle_response t p ~via:packet ~in_port
    | Wf.Ack -> handle_ack t p
  end

let create ?(config = default_config) host ~id =
  let cnt ?help name =
    Telemetry.Registry.counter (W.metrics (Sirpent.Host.world host)) ?help
      ~labels:[ ("entity", Int64.to_string id) ]
      ("vmtp_" ^ name)
  in
  let t =
    {
      host;
      config;
      id;
      boot_ms = Mpl.wrap (W.now (Sirpent.Host.world host) / 1_000_000);
      next_txn = 1;
      calls = Hashtbl.create 16;
      partials = Hashtbl.create 16;
      held = Hashtbl.create 16;
      handler = None;
      on_route_switch = None;
      srtt = None;
      packets_sent = cnt "packets_sent";
      retransmits = cnt "retransmits";
      acks_sent = cnt "acks_sent";
      rejected_checksum = cnt "rejected_checksum" ~help:"undecodable or corrupt transport payloads";
      rejected_entity = cnt "rejected_entity";
      rejected_old = cnt "rejected_old" ~help:"arrivals outside the MPL acceptance window";
      duplicate_requests = cnt "duplicate_requests";
      route_switches = cnt "route_switches" ~help:"failovers to an alternate source route";
      branch_arrivals =
        cnt "branch_arrivals"
          ~help:"arrivals whose trailer shows an in-header branch was taken";
      calls_completed = cnt "calls_completed";
      calls_failed = cnt "calls_failed";
    }
  in
  Sirpent.Host.set_receive host (on_host_receive t);
  t

let call t ~server ~routes ?(priority = Token.Priority.normal) ~data ~on_reply
    ~on_fail () =
  match routes with
  | [] -> on_fail "no routes"
  | _ ->
    let txn = t.next_txn in
    t.next_txn <- (t.next_txn + 1) land 0xFFFFFFFF;
    let request_group = group_of data in
    let call =
      {
        txn;
        server;
        routes = Array.of_list routes;
        route_idx = 0;
        priority;
        request = Bytes.copy data;
        request_group;
        request_stamp = stamp t;
        request_acked = 0;
        retries = 0;
        timer_at = 0;
        timer_seq = -1;
        response = fresh_partial ~peer:server;
        started = now t;
        on_reply;
        on_fail;
        finished = false;
      }
    in
    Hashtbl.replace t.calls txn call;
    ignore (send_request_group t call ~skip:0);
    arm_timer t call

(* Policy-route mode: the compiled primary (which may carry in-header
   branch routes) first, then the compiled alternates as the client-side
   failover ladder. When the primary's DAG absorbs a link failure the
   ladder is never climbed — E23 measures exactly that difference. *)
let call_compiled t ~server ~compiled ?priority ~data ~on_reply ~on_fail () =
  let routes =
    compiled.Policy.Compiler.route :: compiled.Policy.Compiler.alternates
  in
  call t ~server ~routes ?priority ~data ~on_reply ~on_fail ()
