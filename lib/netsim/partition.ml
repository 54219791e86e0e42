(* Region partitioner: split one topology into per-region subgraphs whose
   node ids, names and port numbers are exactly those of the full graph.

   Every subgraph re-creates all nodes (so ids coincide) but materializes
   only the links touching its region, processed in original connection
   order — port allocation is sequential per node, so each node's ports
   come out identical to the full graph and source routes computed on the
   full graph remain valid inside any region. A link crossing regions is
   a gateway link: each side gets the real endpoint wired, at its
   original port, to a proxy stub standing in for the remote side.

   Gateway links with zero propagation delay refuse to partition: the
   conservative sync's lookahead is exactly that delay, and a zero
   lookahead would let null messages promise no progress. Callers fall
   back to the serial single-world path instead. *)

module G = Topo.Graph

type gateway = {
  gw_link : G.link;  (** the original full-graph link *)
  a_region : int;
  b_region : int;
  a_proxy : G.node_id;  (** in [graphs.(a_region)], stands for the [b] side *)
  b_proxy : G.node_id;  (** in [graphs.(b_region)], stands for the [a] side *)
}

type t = {
  regions : int;
  full : G.t;
  graphs : G.t array;
  region_of : int array;
  gateways : gateway array;
}

type error =
  | Zero_latency_gateway of G.link
  | Bad_region of { node : G.node_id; region : int }
  | Unsplittable of { region : int; atoms : int }

let pp_error ppf = function
  | Zero_latency_gateway l ->
    Format.fprintf ppf
      "gateway link %d (%d<->%d) has zero propagation delay: no lookahead, cannot partition"
      l.G.link_id l.G.a l.G.b
  | Bad_region { node; region } ->
    Format.fprintf ppf "node %d assigned to invalid region %d" node region
  | Unsplittable { region; atoms } ->
    Format.fprintf ppf
      "region %d cannot be split: %d atom(s) after contracting zero-latency links"
      region atoms

let split full ~region =
  let n = G.node_count full in
  let region_of = Array.init n (fun id -> region id) in
  let bad = ref None in
  Array.iteri
    (fun node r -> if r < 0 && !bad = None then bad := Some (Bad_region { node; region = r }))
    region_of;
  match !bad with
  | Some e -> Error e
  | None ->
    let regions = 1 + Array.fold_left max 0 region_of in
    let zero =
      List.find_opt
        (fun (l : G.link) ->
          region_of.(l.G.a) <> region_of.(l.G.b) && l.G.props.G.propagation <= 0)
        (G.links full)
    in
    (match zero with
    | Some l -> Error (Zero_latency_gateway l)
    | None ->
      let graphs =
        Array.init regions (fun _ ->
            let g = G.create () in
            for id = 0 to n - 1 do
              ignore (G.add_node g ~name:(G.name full id) (G.kind full id))
            done;
            g)
      in
      let gateways = ref [] in
      List.iter
        (fun (l : G.link) ->
          let ra = region_of.(l.G.a) and rb = region_of.(l.G.b) in
          if ra = rb then begin
            let pa, pb = G.connect graphs.(ra) l.G.a l.G.b l.G.props in
            assert (pa = l.G.a_port && pb = l.G.b_port)
          end
          else begin
            let proxy g side =
              G.add_node g ~name:(Printf.sprintf "gw-proxy.link%d.%s" l.G.link_id side)
                G.Host
            in
            let a_proxy = proxy graphs.(ra) "b" in
            let pa, _ = G.connect graphs.(ra) l.G.a a_proxy l.G.props in
            assert (pa = l.G.a_port);
            let b_proxy = proxy graphs.(rb) "a" in
            let pb, _ = G.connect graphs.(rb) l.G.b b_proxy l.G.props in
            assert (pb = l.G.b_port);
            gateways := { gw_link = l; a_region = ra; b_region = rb; a_proxy; b_proxy } :: !gateways
          end)
        (G.links full);
      Ok
        {
          regions;
          full;
          graphs;
          region_of;
          gateways = Array.of_list (List.rev !gateways);
        })

(* Over-decomposition: split one region of an existing partition into
   [ways] sub-regions, leaving every other region number untouched (the
   first sub-region keeps the old number; the rest are appended after
   the current regions), so profile tables indexed by original region
   stay valid while more shards become available to pack over workers.

   Any internal link that ends up crossing sub-regions becomes a gateway
   and must have positive propagation, so nodes joined by zero-latency
   links are first contracted into atoms (union-find); atoms are then
   LPT-packed into the sub-regions by node count (sort by count
   descending, representative id ascending; place on the lightest bin,
   lowest bin first) — deterministic, so a profile-guided refinement
   replays identically on every run. A region that contracts to a single
   atom cannot be split: [Unsplittable], which callers count and degrade
   from rather than raise. *)
let refine t ~region:target ~ways =
  if target < 0 || target >= t.regions then
    invalid_arg "Partition.refine: no such region";
  if ways <= 1 then Ok t
  else begin
    let n = G.node_count t.full in
    (* union-find over the target region's nodes, contracting
       zero-latency internal links *)
    let parent = Array.init n (fun id -> id) in
    let rec find i = if parent.(i) = i then i else find parent.(i) in
    let union a b =
      let ra = find a and rb = find b in
      if ra <> rb then parent.(max ra rb) <- min ra rb
    in
    List.iter
      (fun (l : G.link) ->
        if
          t.region_of.(l.G.a) = target
          && t.region_of.(l.G.b) = target
          && l.G.props.G.propagation <= 0
        then union l.G.a l.G.b)
      (G.links t.full);
    let atom_weight = Hashtbl.create 16 in
    for id = 0 to n - 1 do
      if t.region_of.(id) = target then begin
        let root = find id in
        let w = Option.value ~default:0 (Hashtbl.find_opt atom_weight root) in
        Hashtbl.replace atom_weight root (w + 1)
      end
    done;
    let atoms =
      List.sort
        (fun (ra, wa) (rb, wb) ->
          match compare wb wa with 0 -> compare ra rb | c -> c)
        (Hashtbl.fold (fun root w acc -> (root, w) :: acc) atom_weight [])
    in
    let n_atoms = List.length atoms in
    if n_atoms < 2 then Error (Unsplittable { region = target; atoms = n_atoms })
    else begin
      let bins = min ways n_atoms in
      let load = Array.make bins 0 in
      let bin_of_root = Hashtbl.create 16 in
      List.iter
        (fun (root, w) ->
          let b = ref 0 in
          for j = 1 to bins - 1 do
            if load.(j) < load.(!b) then b := j
          done;
          Hashtbl.replace bin_of_root root !b;
          load.(!b) <- load.(!b) + w)
        atoms;
      let region id =
        if t.region_of.(id) <> target then t.region_of.(id)
        else
          match Hashtbl.find bin_of_root (find id) with
          | 0 -> target
          | b -> t.regions + b - 1
      in
      split t.full ~region
    end
  end

(* "the region field of node addresses": region membership is carried in
   node names — the trailing integer after the last "campus" or "region"
   marker, the convention of the campus-internet builders. *)
let region_key name =
  let find marker =
    let ml = String.length marker and nl = String.length name in
    let rec last i best =
      if i + ml > nl then best
      else if String.sub name i ml = marker then last (i + 1) (Some (i + ml))
      else last (i + 1) best
    in
    last 0 None
  in
  let digits_at start =
    let nl = String.length name in
    let rec stop i = if i < nl && name.[i] >= '0' && name.[i] <= '9' then stop (i + 1) else i in
    let e = stop start in
    if e = start then None else int_of_string_opt (String.sub name start (e - start))
  in
  match find "region" with
  | Some i -> digits_at i
  | None -> (match find "campus" with Some i -> digits_at i | None -> None)

let by_name full =
  let missing = ref None in
  let region id =
    match region_key (G.name full id) with
    | Some r -> r
    | None ->
      if !missing = None then missing := Some id;
      0
  in
  let r = Array.init (G.node_count full) region in
  match !missing with
  | Some id ->
    Error
      (Bad_region
         { node = id; region = -1 })
  | None -> Ok (fun id -> r.(id))
