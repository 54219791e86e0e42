module Name = Dirsvc.Name

type t =
  | Direct
  | Waypoint of Name.t
  | Seq of t list
  | Alt of t list
  | Protect of t
  | Avoid_node of Name.t * t
  | Avoid_region of Name.t * t
  | Load_balance of { at : Name.t; port : int; next : t }

let direct = Direct
let waypoint n = Waypoint n
let seq ts = if ts = [] then invalid_arg "Intent.seq: empty" else Seq ts
let alt ts = if ts = [] then invalid_arg "Intent.alt: empty" else Alt ts
let prefer a ~backup = Alt [ a; backup ]
let protect t = Protect t
let avoid_node n t = Avoid_node (n, t)
let avoid_region r t = Avoid_region (r, t)

let load_balance ~at ~port next =
  if port < 1 || port > 253 then invalid_arg "Intent.load_balance: port must be 1-253";
  Load_balance { at; port; next }

(* {1 Normal form}

   Seq distributes over Alt (cross product, left preference first), so any
   intent flattens to an ordered list of conjunctive specs: the first spec
   that compiles is the primary route, later specs are its fallbacks. *)

type spec = {
  legs : Name.t list;  (** waypoints in traversal order *)
  avoid_nodes : Name.t list;
  avoid_regions : Name.t list;
  balance : (Name.t * int) list;
  protected : bool;
}

let empty_spec =
  { legs = []; avoid_nodes = []; avoid_regions = []; balance = []; protected = false }

let max_specs = 64

let merge a b =
  {
    legs = a.legs @ b.legs;
    avoid_nodes = a.avoid_nodes @ b.avoid_nodes;
    avoid_regions = a.avoid_regions @ b.avoid_regions;
    balance = a.balance @ b.balance;
    protected = a.protected || b.protected;
  }

let cross a b = List.concat_map (fun sa -> List.map (merge sa) b) a

let cap specs = if List.length specs <= max_specs then specs else List.filteri (fun i _ -> i < max_specs) specs

let rec norm = function
  | Direct -> [ empty_spec ]
  | Waypoint n -> [ { empty_spec with legs = [ n ] } ]
  | Seq ts -> cap (List.fold_left (fun acc t -> cross acc (norm t)) [ empty_spec ] ts)
  | Alt ts -> cap (List.concat_map norm ts)
  | Protect t -> List.map (fun s -> { s with protected = true }) (norm t)
  | Avoid_node (n, t) ->
    List.map (fun s -> { s with avoid_nodes = n :: s.avoid_nodes }) (norm t)
  | Avoid_region (r, t) ->
    List.map (fun s -> { s with avoid_regions = r :: s.avoid_regions }) (norm t)
  | Load_balance { at; port; next } ->
    List.map (fun s -> { s with balance = (at, port) :: s.balance }) (norm next)

let normalize t = norm t

let spec_is_plain s =
  s.legs = [] && s.avoid_nodes = [] && s.avoid_regions = [] && s.balance = []
