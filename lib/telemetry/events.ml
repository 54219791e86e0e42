type event =
  | Router_crashed of { node : int; frames_lost : int }
  | Router_restarted of { node : int }
  | Link_failed of { link_id : int }
  | Link_restored of { link_id : int }
  | Backpressure_on of { node : int; in_port : int; congested_port : int; rate_bps : float }
  | Backpressure_off of { node : int; in_port : int; congested_port : int }
  | Backpressure_flap of { node : int; in_port : int; congested_port : int }
  | Route_failover of { entity : int64; route_index : int }
  | Inheader_failover of { node : int; port : int }
  | Branch_arrival of { entity : int64 }
  | Directory_frozen of { frozen : bool }

type t = {
  capacity : int;
  ring : (Sim.Time.t * event) option array;
  mutable next : int;
  mutable total : int;
}

let create ?(capacity = 1024) () =
  if capacity < 0 then invalid_arg "Events.create";
  { capacity; ring = Array.make (max 1 capacity) None; next = 0; total = 0 }

let emit t ~time event =
  if t.capacity > 0 then begin
    t.ring.(t.next) <- Some (time, event);
    t.next <- (t.next + 1) mod t.capacity
  end;
  t.total <- t.total + 1

let total t = t.total
let size t = min t.total t.capacity

let entries t =
  let n = size t in
  let first = if t.total <= t.capacity then 0 else t.next in
  List.init n (fun i ->
      match t.ring.((first + i) mod t.capacity) with
      | Some e -> e
      | None -> assert false)

let kind_name = function
  | Router_crashed _ -> "router_crashed"
  | Router_restarted _ -> "router_restarted"
  | Link_failed _ -> "link_failed"
  | Link_restored _ -> "link_restored"
  | Backpressure_on _ -> "backpressure_on"
  | Backpressure_off _ -> "backpressure_off"
  | Backpressure_flap _ -> "backpressure_flap"
  | Route_failover _ -> "route_failover"
  | Inheader_failover _ -> "inheader_failover"
  | Branch_arrival _ -> "branch_arrival"
  | Directory_frozen _ -> "directory_frozen"

let to_string = function
  | Router_crashed { node; frames_lost } ->
    Printf.sprintf "router %d crashed (%d frames lost)" node frames_lost
  | Router_restarted { node } -> Printf.sprintf "router %d restarted" node
  | Link_failed { link_id } -> Printf.sprintf "link %d failed" link_id
  | Link_restored { link_id } -> Printf.sprintf "link %d restored" link_id
  | Backpressure_on { node; in_port; congested_port; rate_bps } ->
    Printf.sprintf "node %d: backpressure on (in_port %d -> port %d, %.0f b/s)"
      node in_port congested_port rate_bps
  | Backpressure_off { node; in_port; congested_port } ->
    Printf.sprintf "node %d: backpressure off (in_port %d -> port %d)" node
      in_port congested_port
  | Backpressure_flap { node; in_port; congested_port } ->
    Printf.sprintf "node %d: backpressure flap (in_port %d -> port %d)" node
      in_port congested_port
  | Route_failover { entity; route_index } ->
    Printf.sprintf "entity %Ld failed over to route %d" entity route_index
  | Inheader_failover { node; port } ->
    Printf.sprintf "router %d switched to in-header branch (dead port %d)" node port
  | Branch_arrival { entity } ->
    Printf.sprintf "entity %Ld received a packet that took a branch route" entity
  | Directory_frozen { frozen } ->
    if frozen then "directory frozen (serving stale answers)"
    else "directory thawed"
