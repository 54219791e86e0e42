type handling = Cut_through | Store_forward | Local_delivery | Injected

type token_check = No_token | Cache_hit | Cache_miss | Denied

type fate =
  | Malformed
  | Down
  | Parse_error
  | Unauthorized
  | Truncated
  | Send_drop
  | Aborted
  | Misdelivered
  | Purged
  | Preempted
  | No_handler
  | Handler_error

type span = {
  node : int;
  in_port : int;
  out_port : int;
  arrival : Sim.Time.t;
  departure : Sim.Time.t;
  queue_wait : Sim.Time.t;
  handling : handling;
  token : token_check;
  drop : fate option;
}

type flight = {
  packet_id : int;
  injected_at : Sim.Time.t;
  completed_at : Sim.Time.t;
  spans : span list;
  dropped : fate option;
}

type policy = { sample_every : int; capture_drops : bool; capacity : int }

let default_policy = { sample_every = 0; capture_drops = true; capacity = 1024 }

type t = {
  mutable policy : policy;
  mutable ring : flight option array;
  mutable next : int;
  mutable stored : int;
  mutable next_id : int;
  mutable started : int;
  mutable sampled_ctxs : int;
  mutable completions : int;
  mutable drops : int;
}

type ctx = {
  recorder : t;
  packet_id : int;
  injected_at : Sim.Time.t;
  is_sampled : bool;
  mutable rev_spans : span list;
  mutable token_note : token_check;
  mutable drop_fate : fate option;
  mutable finished : bool;
}

let create ?(policy = default_policy) () =
  {
    policy;
    ring = Array.make (max 1 policy.capacity) None;
    next = 0;
    stored = 0;
    next_id = 0;
    started = 0;
    sampled_ctxs = 0;
    completions = 0;
    drops = 0;
  }

let enabled t = t.policy.sample_every > 0

let clear t =
  Array.fill t.ring 0 (Array.length t.ring) None;
  t.next <- 0;
  t.stored <- 0;
  t.next_id <- 0;
  t.started <- 0;
  t.sampled_ctxs <- 0;
  t.completions <- 0;
  t.drops <- 0

let set_policy t policy =
  t.policy <- policy;
  t.ring <- Array.make (max 1 policy.capacity) None;
  clear t;
  t.policy <- policy

let start t ~now =
  if not (enabled t) then None
  else begin
    t.started <- t.started + 1;
    t.next_id <- t.next_id + 1;
    let is_sampled = (t.started - 1) mod t.policy.sample_every = 0 in
    if (not is_sampled) && not t.policy.capture_drops then None
    else begin
      if is_sampled then t.sampled_ctxs <- t.sampled_ctxs + 1;
      Some
        {
          recorder = t;
          packet_id = t.next_id;
          injected_at = now;
          is_sampled;
          rev_spans = [];
          token_note = No_token;
          drop_fate = None;
          finished = false;
        }
    end
  end

let note_token c check = c.token_note <- check

let commit c ~now ~store =
  if not c.finished then begin
    c.finished <- true;
    if c.recorder.policy.capacity > 0 && store then begin
      let t = c.recorder in
      t.ring.(t.next) <-
        Some
          {
            packet_id = c.packet_id;
            injected_at = c.injected_at;
            completed_at = now;
            spans = List.rev c.rev_spans;
            dropped = c.drop_fate;
          };
      t.next <- (t.next + 1) mod Array.length t.ring;
      t.stored <- t.stored + 1
    end
  end

let hop c ~node ~in_port ~out_port ~arrival ~departure ~handling =
  if c.is_sampled && not c.finished then begin
    let token = c.token_note in
    c.token_note <- No_token;
    c.rev_spans <-
      {
        node;
        in_port;
        out_port;
        arrival;
        departure;
        queue_wait = departure - arrival;
        handling;
        token;
        drop = None;
      }
      :: c.rev_spans
  end

let drop c ~node ~in_port ~now fate =
  if not c.finished then begin
    c.recorder.drops <- c.recorder.drops + 1;
    (* The drop span is recorded even on an unsampled context: a flight
       captured because it died must at least show where it died. *)
    c.rev_spans <-
      {
        node;
        in_port;
        out_port = -1;
        arrival = now;
        departure = now;
        queue_wait = 0;
        handling = Injected;
        token = c.token_note;
        drop = Some fate;
      }
      :: c.rev_spans;
    c.drop_fate <- Some fate;
    commit c ~now ~store:(c.is_sampled || c.recorder.policy.capture_drops)
  end

let complete c ~now =
  if not c.finished then begin
    c.recorder.completions <- c.recorder.completions + 1;
    commit c ~now ~store:c.is_sampled
  end

(* Cross-shard handoff: a packet leaving a region-sharded world carries
   its accumulated spans as plain data; the receiving region rebuilds a
   context in its own recorder. The source context is marked finished
   without counting a completion or drop — whatever happens to the
   packet is accounted exactly once, by the importing side. *)

type carried = {
  carried_injected_at : Sim.Time.t;
  carried_sampled : bool;
  carried_rev_spans : span list;
  carried_token : token_check;
}

let export c =
  c.finished <- true;
  {
    carried_injected_at = c.injected_at;
    carried_sampled = c.is_sampled;
    carried_rev_spans = c.rev_spans;
    carried_token = c.token_note;
  }

let import t carried =
  if not (enabled t) then None
  else if (not carried.carried_sampled) && not t.policy.capture_drops then None
  else begin
    t.next_id <- t.next_id + 1;
    if carried.carried_sampled then t.sampled_ctxs <- t.sampled_ctxs + 1;
    Some
      {
        recorder = t;
        packet_id = t.next_id;
        injected_at = carried.carried_injected_at;
        is_sampled = carried.carried_sampled;
        rev_spans = carried.carried_rev_spans;
        token_note = carried.carried_token;
        drop_fate = None;
        finished = false;
      }
  end

let flights t =
  let cap = Array.length t.ring in
  let n = min t.stored cap in
  let first = if t.stored <= cap then 0 else t.next in
  List.init n (fun i ->
      match t.ring.((first + i) mod cap) with
      | Some f -> f
      | None -> assert false)

let started t = t.started
let sampled_count t = t.sampled_ctxs
let completed t = t.completions
let dropped t = t.drops
let recorded t = min t.stored (Array.length t.ring)

let handling_name = function
  | Cut_through -> "cut_through"
  | Store_forward -> "store_forward"
  | Local_delivery -> "local_delivery"
  | Injected -> "injected"

let token_name = function
  | No_token -> "none"
  | Cache_hit -> "hit"
  | Cache_miss -> "miss"
  | Denied -> "denied"

let fate_name = function
  | Malformed -> "malformed"
  | Down -> "down"
  | Parse_error -> "parse_error"
  | Unauthorized -> "unauthorized"
  | Truncated -> "truncated"
  | Send_drop -> "send_drop"
  | Aborted -> "aborted"
  | Misdelivered -> "misdelivered"
  | Purged -> "purged"
  | Preempted -> "preempted"
  | No_handler -> "no_handler"
  | Handler_error -> "handler_error"
