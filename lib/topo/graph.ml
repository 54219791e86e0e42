type node_id = int
type port = int
type node_kind = Host | Router

type link_props = {
  bandwidth_bps : int;
  propagation : Sim.Time.t;
  mtu : int;
}

type link = {
  link_id : int;
  a : node_id;
  a_port : port;
  b : node_id;
  b_port : port;
  props : link_props;
}

(* A node's attached links, indexed by port: [no_link] marks a free
   port. Every lookup reads this array. [order] holds the same links in
   a hash table whose iteration order is the order Dijkstra relaxes
   them in — simulated results depend on it — built as the links were
   attached, in port order. A node with one port has no order to keep:
   its table is [no_order] until a second port is attached, which saves
   the table on every one-port host. [relax] is [order]'s links in its
   iteration order for searches to walk, [stale] until the first search
   after a change. *)
type node = {
  kind : node_kind;
  name : string;
  mutable links : link array;
  mutable order : (port, link) Hashtbl.t;
  mutable relax : link array;
  mutable next_port : port;
}

let no_link =
  let props = { bandwidth_bps = 0; propagation = 0; mtu = 0 } in
  { link_id = -1; a = -1; a_port = -1; b = -1; b_port = -1; props }

let stale = [| no_link |]

(* shared by every node without a table; never written *)
let no_order : (port, link) Hashtbl.t = Hashtbl.create 1

type t = {
  mutable nodes : node array;
  mutable n : int;
  mutable next_link : int;
  mutable all_links : link list;
  by_name : (string, node_id) Hashtbl.t;
  mutable version : int;
      (* bumped on every link attach/detach so route caches (e.g. the
         directory's memoized shortest-path trees) can validate in O(1) *)
}

let create () =
  {
    nodes = [||];
    n = 0;
    next_link = 0;
    all_links = [];
    by_name = Hashtbl.create 64;
    version = 0;
  }

let version g = g.version

let max_ports = 255

let add_node g ?name kind =
  let id = g.n in
  let name =
    match name with
    | Some s -> s
    | None -> (match kind with Host -> "h" | Router -> "r") ^ string_of_int id
  in
  let node =
    {
      kind;
      name;
      (* room for port 1, as a literal: most nodes are one-port hosts,
         and [Array.make] is a C call a large build pays per node *)
      links = [| no_link; no_link |];
      order = no_order;
      relax = stale;
      next_port = 1;
    }
  in
  if g.n = Array.length g.nodes then begin
    let cap = max 16 (2 * g.n) in
    let fresh = Array.make cap node in
    Array.blit g.nodes 0 fresh 0 g.n;
    g.nodes <- fresh
  end;
  g.nodes.(g.n) <- node;
  g.n <- g.n + 1;
  Hashtbl.replace g.by_name name id;
  id

let node_count g = g.n

let get g id =
  if id < 0 || id >= g.n then invalid_arg "Graph: bad node id";
  g.nodes.(id)

let kind g id = (get g id).kind
let name g id = (get g id).name
let find_by_name g s = Hashtbl.find_opt g.by_name s

let alloc_port node =
  if node.next_port > max_ports then failwith "Graph.connect: node has 255 ports";
  let p = node.next_port in
  node.next_port <- p + 1;
  p

let set_link node p link =
  let n = Array.length node.links in
  if p >= n then begin
    let fresh = Array.make (max (p + 1) (2 * n)) no_link in
    Array.blit node.links 0 fresh 0 n;
    node.links <- fresh
  end;
  node.links.(p) <- link

(* [node]'s order table rebuilt from its link array in port order, as
   a fresh table: the table of a node that attached those links one by
   one (ports are allocated in attach order) and never lost one. *)
let rebuild_order node =
  node.order <- Hashtbl.create 4;
  node.relax <- stale;
  Array.iteri (fun p l -> if l != no_link then Hashtbl.replace node.order p l) node.links

let attach node p link =
  set_link node p link;
  if node.order != no_order then Hashtbl.replace node.order p link
  else if p > 1 then rebuild_order node;
  node.relax <- stale

let connect g a b props =
  let na = get g a and nb = get g b in
  let pa = alloc_port na and pb = alloc_port nb in
  let link = { link_id = g.next_link; a; a_port = pa; b; b_port = pb; props } in
  g.next_link <- g.next_link + 1;
  attach na pa link;
  attach nb pb link;
  g.all_links <- link :: g.all_links;
  g.version <- g.version + 1;
  (pa, pb)

let attached node p =
  if p >= 0 && p < Array.length node.links then node.links.(p) else no_link

let link_at g id p =
  let l = attached (get g id) p in
  if l == no_link then raise Not_found else l

let link_via g id p =
  let l = attached (get g id) p in
  if l == no_link then None else Some l

let link_alive g link = (attached (get g link.a) link.a_port).link_id = link.link_id

let detach node p =
  set_link node p no_link;
  if node.order != no_order then Hashtbl.remove node.order p;
  node.relax <- stale

let disconnect g link =
  detach (get g link.a) link.a_port;
  detach (get g link.b) link.b_port;
  g.all_links <- List.filter (fun l -> l.link_id <> link.link_id) g.all_links;
  g.version <- g.version + 1

(* Re-attach a previously disconnected link on its original ports, and
   back at its link-id position in [all_links] (newest first), so a
   repaired graph is indistinguishable from one never cut: both ends'
   order tables are rebuilt, so Dijkstra's tie order survives the
   repair. A link that was never disconnected (or whose ports were since
   reused) is left alone rather than clobbering another link. *)
let reconnect g link =
  let na = get g link.a and nb = get g link.b in
  if attached na link.a_port == no_link && attached nb link.b_port == no_link then begin
    set_link na link.a_port link;
    set_link nb link.b_port link;
    if na.order != no_order then rebuild_order na;
    if nb.order != no_order then rebuild_order nb;
    let rec insert = function
      | l :: rest when l.link_id > link.link_id -> l :: insert rest
      | l :: _ as all when l.link_id = link.link_id -> all
      | all -> link :: all
    in
    g.all_links <- insert g.all_links;
    g.version <- g.version + 1
  end

let peer link n =
  if n = link.a then (link.b, link.b_port)
  else if n = link.b then (link.a, link.a_port)
  else invalid_arg "Graph.peer"

let ports g id =
  let links = (get g id).links in
  let acc = ref [] in
  for p = Array.length links - 1 downto 0 do
    if links.(p) != no_link then acc := (p, links.(p)) :: !acc
  done;
  !acc

let degree g id =
  Array.fold_left (fun n l -> if l == no_link then n else n + 1) 0 (get g id).links

let links g = List.rev g.all_links
let iter_links g f = List.iter f g.all_links
let iter_nodes g f = for id = 0 to g.n - 1 do f id done

type hop = { at : node_id; out : port }

let route_nodes g ~src hops =
  let rec walk node = function
    | [] -> [ node ]
    | { at; out } :: rest ->
      if at <> node then failwith "Graph.route_nodes: route does not chain";
      (match link_via g at out with
      | None -> failwith "Graph.route_nodes: hop over missing link"
      | Some l ->
        let next, _ = peer l at in
        node :: walk next rest)
  in
  walk src hops

(* A search's result: [prev.(v)] is [u lsl 8 lor port] for the hop
   [{at = u; out = port}] that reaches [v] ([port <= max_ports]), or -1
   for the source and every unreached node. A rebuild reuses the arrays. *)
type spt = {
  mutable spt_src : node_id;
  mutable spt_prev : int array;
  mutable spt_dist : float array;
}

let spt_create () = { spt_src = -1; spt_prev = [||]; spt_dist = [||] }

(* Dijkstra's frontier: a heap of node ids keyed on
   [(int_of_float (cost *. 1e6), push seq)], each entry's exact float
   cost in [costs] at its push seq for the staleness test, and the
   settled nodes' bytes. Each domain keeps one for every search to reuse
   (a search calls out to nothing, so none runs inside another), with
   the tree of a search to one destination and a [~metric] call's table. *)
type frontier = {
  heap : int Sim.Heap.t;
  mutable costs : float array;
  mutable visited : Bytes.t;
  scratch : spt;
  mutable weights : float array;
}

let frontier =
  Domain.DLS.new_key (fun () ->
      let heap = Sim.Heap.create ~dummy:(-1) in
      let costs = Array.make 64 0.0 in
      { heap; costs; visited = Bytes.empty; scratch = spt_create (); weights = [||] })

(* The weight table of a [~metric] call. The domain's table is taken
   while [metric] fills it, so a metric that itself searches fills a
   fresh one. *)
let weigh g metric =
  let fr = Domain.DLS.get frontier in
  let w = fr.weights in
  let w = if Array.length w < g.next_link then Array.make g.next_link 0.0 else w in
  fr.weights <- [||];
  List.iter (fun l -> w.(l.link_id) <- metric l) g.all_links;
  fr.weights <- w;
  w

(* Queue [v] as push [s]; inlined, so [cost] is never boxed. *)
let[@inline] push fr s cost v =
  if s = Array.length fr.costs then begin
    let costs = Array.make (2 * s) 0.0 in
    Array.blit fr.costs 0 costs 0 s;
    fr.costs <- costs
  end;
  fr.costs.(s) <- cost;
  Sim.Heap.push fr.heap ~time:(int_of_float (cost *. 1e6)) ~seq:s v;
  s + 1

(* The one Dijkstra behind every search, written into [tree]. With
   [dst >= 0] it stops once [dst] is settled; with [dst = -1] it builds
   the whole tree. A node with no order table has at most one link, so
   it is reached only from its one neighbour, at that neighbour's
   settling: its [prev] is final at that one relaxation and popping it
   later would relax nothing. Such a node is settled as it is relaxed
   and never enters the heap, which leaves every other entry's
   [(key, seq)] order unchanged — results are those of the plain
   algorithm, ties included. *)
let search g ~weights ~src ~dst ~banned_links ~banned_nodes tree =
  let fr = Domain.DLS.get frontier and n = g.n in
  if Bytes.length fr.visited < n then fr.visited <- Bytes.create n;
  if Array.length tree.spt_dist < n then begin
    tree.spt_dist <- Array.make n 0.0;
    tree.spt_prev <- Array.make n 0
  end;
  tree.spt_src <- src;
  let visited = fr.visited and dist = tree.spt_dist and prev = tree.spt_prev in
  Array.fill dist 0 (Array.length dist) infinity;
  Array.fill prev 0 (Array.length prev) (-1);
  Bytes.fill visited 0 n '\000';
  Sim.Heap.clear fr.heap;
  dist.(src) <- 0.0;
  let seq = ref (push fr 0 0.0 src) and finished = ref false in
  while not !finished do
    if Sim.Heap.is_empty fr.heap then finished := true
    else begin
      let cost = fr.costs.(Sim.Heap.min_seq fr.heap) in
      let u = Sim.Heap.pop_value fr.heap in
      if Bytes.get visited u = '\000' && cost <= dist.(u) then begin
        Bytes.set visited u '\001';
        if u = dst then finished := true
        else begin
          (* relaxation order: the order table's, else the port array's *)
          let node = g.nodes.(u) in
          if node.relax == stale && node.order != no_order then
            node.relax <- Array.of_seq (Hashtbl.to_seq_values node.order);
          let links = if node.order == no_order then node.links else node.relax in
          for i = 0 to Array.length links - 1 do
            let l = links.(i) in
            if l != no_link && not (List.mem l.link_id banned_links) then begin
              let v = if l.a = u then l.b else l.a in
              if (not (List.mem v banned_nodes)) && Bytes.get visited v = '\000' then begin
                let w = weights.(l.link_id) in
                if w <= 0.0 then invalid_arg "Graph: metric must be positive";
                let alt = dist.(u) +. w in
                if alt < dist.(v) then begin
                  dist.(v) <- alt;
                  prev.(v) <- (u lsl 8) lor if l.a = u then l.a_port else l.b_port;
                  if g.nodes.(v).order == no_order then begin
                    Bytes.set visited v '\001';
                    if v = dst then finished := true
                  end
                  else seq := push fr !seq alt v
                end
              end
            end
          done
        end
      end
    end
  done

let spt_src spt = spt.spt_src

let spt_path spt ~dst =
  if dst = spt.spt_src then Some []
  else if dst < 0 || dst >= Array.length spt.spt_prev || spt.spt_prev.(dst) < 0 then None
  else begin
    let rec build v acc =
      let e = spt.spt_prev.(v) in
      if e < 0 then acc else build (e lsr 8) ({ at = e lsr 8; out = e land 0xff } :: acc)
    in
    Some (build dst [])
  end

let spt_dist spt ~dst =
  if dst = spt.spt_src then 0.0
  else if dst < 0 || dst >= Array.length spt.spt_dist then infinity
  else spt.spt_dist.(dst)

let spt_rebuild g ~weights spt ~src =
  search g ~weights ~src ~dst:(-1) ~banned_links:[] ~banned_nodes:[] spt

let shortest_path_tree g ~metric ~src =
  let spt = spt_create () in
  spt_rebuild g ~weights:(weigh g metric) spt ~src;
  spt

(* A search to [dst] in the domain's scratch tree, read out at once. *)
let path_over g ~weights ~src ~dst ~banned_links ~banned_nodes =
  let scratch = (Domain.DLS.get frontier).scratch in
  search g ~weights ~src ~dst ~banned_links ~banned_nodes scratch;
  spt_path scratch ~dst

let shortest_path_excluding g ~metric ~src ~dst ~banned_links ~banned_nodes =
  path_over g ~weights:(weigh g metric) ~src ~dst ~banned_links ~banned_nodes

let shortest_path g ~metric ~src ~dst =
  shortest_path_excluding g ~metric ~src ~dst ~banned_links:[] ~banned_nodes:[]

let path_cost g ~metric hops =
  List.fold_left
    (fun acc { at; out } ->
      match link_via g at out with
      | None -> infinity
      | Some l -> acc +. metric l)
    0.0 hops

let bandwidth_metric l = 1.0 +. (1e8 /. float_of_int l.props.bandwidth_bps)

(* Yen's k-shortest loop-free paths. *)
let k_shortest_paths_weighted g ~weights ~src ~dst ~k =
  if k <= 0 then []
  else
    match path_over g ~weights ~src ~dst ~banned_links:[] ~banned_nodes:[] with
    | None -> []
    | Some first ->
      let accepted = ref [ first ] in
      let candidates = ref [] in
      let prefix i p = List.filteri (fun j _ -> j < i) p in
      let round () =
        let last = List.hd !accepted in
        List.iteri
          (fun i spur_hop ->
            let root = prefix i last in
            let spur_node = spur_hop.at in
            (* Ban links used by accepted paths sharing this root, and the
               nodes of the root (except the spur node) to keep loop-free. *)
            let banned_links =
              List.filter_map
                (fun p ->
                  match List.nth_opt p i with
                  | Some h when prefix i p = root ->
                    Option.map (fun l -> l.link_id) (link_via g h.at h.out)
                  | _ -> None)
                (!accepted @ List.map snd !candidates)
            in
            let banned_nodes =
              List.filter (fun n -> n <> spur_node) (route_nodes g ~src root)
            in
            match
              path_over g ~weights ~src:spur_node ~dst ~banned_links ~banned_nodes
            with
            | None -> ()
            | Some spur ->
              let candidate = root @ spur in
              let cost = path_cost g ~metric:(fun l -> weights.(l.link_id)) candidate in
              let dominated =
                List.exists (fun (_, p) -> p = candidate) !candidates
                || List.mem candidate !accepted
              in
              if not dominated then candidates := (cost, candidate) :: !candidates)
          last
      in
      let continue = ref true in
      while List.length !accepted < k && !continue do
        round ();
        match List.sort (fun (c1, _) (c2, _) -> compare c1 c2) !candidates with
        | [] -> continue := false
        | (_, best) :: rest ->
          accepted := best :: !accepted;
          candidates := rest
      done;
      List.rev !accepted

let k_shortest_paths g ~metric ~src ~dst ~k =
  k_shortest_paths_weighted g ~weights:(weigh g metric) ~src ~dst ~k

(* Builders *)

let default_props =
  { bandwidth_bps = 10_000_000; propagation = Sim.Time.us 5; mtu = 1500 }

let line ?(props = default_props) n =
  if n <= 0 then invalid_arg "Graph.line";
  let g = create () in
  let ids = Array.init n (fun _ -> add_node g Router) in
  for i = 0 to n - 2 do
    ignore (connect g ids.(i) ids.(i + 1) props)
  done;
  (g, ids)

let star ?(props = default_props) n =
  let g = create () in
  let hub = add_node g Router in
  let leaves =
    Array.init n (fun _ ->
        let h = add_node g Host in
        ignore (connect g hub h props);
        h)
  in
  (g, hub, leaves)

let dumbbell ?(access = default_props)
    ?(trunk = { default_props with bandwidth_bps = 1_500_000 }) n =
  let g = create () in
  let r1 = add_node g Router and r2 = add_node g Router in
  ignore (connect g r1 r2 trunk);
  let left =
    Array.init n (fun _ ->
        let h = add_node g Host in
        ignore (connect g h r1 access);
        h)
  in
  let right =
    Array.init n (fun _ ->
        let h = add_node g Host in
        ignore (connect g h r2 access);
        h)
  in
  (g, left, right)

let hierarchical_switch ?(props = default_props) g ~leaves =
  if leaves <= 0 then invalid_arg "Graph.hierarchical_switch";
  (* Reserve a few root ports for the switch's own uplinks. *)
  let fan_limit = 250 in
  let root = add_node g Router in
  let rec grow parents remaining =
    (* [parents] are routers with free ports; attach up to fan_limit
       children to each until [remaining] leaves exist. *)
    if remaining <= 0 then []
    else begin
      let stages = List.length parents * fan_limit in
      if remaining <= stages then begin
        (* final stage: children are the leaves *)
        let rec attach parents made =
          if made >= remaining then []
          else
            match parents with
            | [] -> []
            | parent :: rest ->
              let take = min fan_limit (remaining - made) in
              let children =
                List.init take (fun _ ->
                    let c = add_node g Router in
                    ignore (connect g parent c props);
                    c)
              in
              children @ attach rest (made + take)
        in
        attach parents 0
      end
      else begin
        (* intermediate stage: fill every parent, recurse *)
        let next =
          List.concat_map
            (fun parent ->
              List.init fan_limit (fun _ ->
                  let c = add_node g Router in
                  ignore (connect g parent c props);
                  c))
            parents
        in
        grow next remaining
      end
    end
  in
  let leaf_list = grow [ root ] leaves in
  (root, Array.of_list leaf_list)

let hierarchical_internet ~rng ?(branching = 8) ?(depth = 3) ~hosts () =
  if branching < 2 || branching > 250 then
    invalid_arg "Graph.hierarchical_internet: branching must be in [2, 250]";
  if depth < 1 then invalid_arg "Graph.hierarchical_internet: depth must be >= 1";
  if hosts < 1 then invalid_arg "Graph.hierarchical_internet: hosts must be >= 1";
  let leaves = int_of_float (float_of_int branching ** float_of_int depth) in
  let per_leaf = ((hosts - 1) / leaves) + 1 in
  if per_leaf > 250 then
    invalid_arg
      "Graph.hierarchical_internet: too many hosts per leaf region (VIPER's \
       255-port limit); increase branching or depth";
  let g = create () in
  let trunk level =
    (* faster, longer links toward the top of the hierarchy *)
    {
      bandwidth_bps = (if level = 0 then 100_000_000 else 45_000_000);
      propagation = Sim.Time.us (50 + (100 * (depth - level)) + Sim.Rng.int rng 450);
      mtu = 1500;
    }
  in
  let local = { default_props with propagation = Sim.Time.us 5 } in
  let root = add_node g ~name:"top" Router in
  (* depth levels of [branching]-ary region routers below the root; node
     names spell the region path, so a registered name's components mirror
     the topology exactly as §3 prescribes. *)
  let rec grow parent pname level acc =
    if level = depth then (parent, pname) :: acc
    else begin
      let acc = ref acc in
      for i = branching - 1 downto 0 do
        let cname = Printf.sprintf "%s.r%d" pname i in
        let child = add_node g ~name:cname Router in
        ignore (connect g parent child (trunk level));
        acc := grow child cname (level + 1) !acc
      done;
      !acc
    end
  in
  let leaf_regions = Array.of_list (grow root "top" 0 []) in
  let host_ids =
    Array.init hosts (fun i ->
        let leaf, lname = leaf_regions.(i mod Array.length leaf_regions) in
        let h = add_node g ~name:(Printf.sprintf "%s.h%d" lname i) Host in
        ignore (connect g leaf h local);
        h)
  in
  (g, Array.map fst leaf_regions, host_ids)

let campus_internet ~rng ~campuses ~hosts_per_campus =
  if campuses < 2 then invalid_arg "Graph.campus_internet";
  let g = create () in
  let routers =
    Array.init campuses (fun i ->
        add_node g ~name:(Printf.sprintf "campus%d" i) Router)
  in
  let trunk_props () =
    {
      bandwidth_bps = 45_000_000;
      propagation = Sim.Time.us (500 + Sim.Rng.int rng 4500);
      mtu = 1500;
    }
  in
  for i = 0 to campuses - 1 do
    ignore (connect g routers.(i) routers.((i + 1) mod campuses) (trunk_props ()))
  done;
  (* A couple of chords for path diversity on larger rings. *)
  if campuses >= 6 then begin
    ignore (connect g routers.(0) routers.(campuses / 2) (trunk_props ()));
    ignore (connect g routers.(1) routers.((campuses / 2) + 1) (trunk_props ()))
  end;
  let local = { default_props with propagation = Sim.Time.us 5 } in
  let hosts =
    Array.init
      (campuses * hosts_per_campus)
      (fun i ->
        let c = i mod campuses in
        let h = add_node g ~name:(Printf.sprintf "host%d.campus%d" i c) Host in
        ignore (connect g routers.(c) h local);
        h)
  in
  (g, routers, hosts)
