module G = Topo.Graph
module W = Netsim.World
module Router = Sirpent.Router
module C = Telemetry.Registry.Counter

type stats = {
  mutable links_failed : int;
  mutable links_restored : int;
  mutable crashes : int;
  mutable restarts : int;
  mutable frames_corrupted : int;
  mutable bits_flipped : int;
  mutable header_corruptions : int;
  mutable payload_corruptions : int;
  mutable trailer_corruptions : int;
  mutable directory_freezes : int;
}

(* The live scoreboard is a set of faults_* counters on the world's
   telemetry registry; [stats] returns a snapshot record. *)
type counters = {
  c_links_failed : C.t;
  c_links_restored : C.t;
  c_crashes : C.t;
  c_restarts : C.t;
  c_frames_corrupted : C.t;
  c_bits_flipped : C.t;
  c_header_corruptions : C.t;
  c_payload_corruptions : C.t;
  c_trailer_corruptions : C.t;
  c_directory_freezes : C.t;
}

type t = {
  world : W.t;
  rng : Sim.Rng.t;
  c : counters;
  corruption : (int, Corrupt.spec) Hashtbl.t;  (* keyed by link_id *)
}

let stats t =
  {
    links_failed = C.value t.c.c_links_failed;
    links_restored = C.value t.c.c_links_restored;
    crashes = C.value t.c.c_crashes;
    restarts = C.value t.c.c_restarts;
    frames_corrupted = C.value t.c.c_frames_corrupted;
    bits_flipped = C.value t.c.c_bits_flipped;
    header_corruptions = C.value t.c.c_header_corruptions;
    payload_corruptions = C.value t.c.c_payload_corruptions;
    trailer_corruptions = C.value t.c.c_trailer_corruptions;
    directory_freezes = C.value t.c.c_directory_freezes;
  }


(* Shard-resident injection: one injector per region world, each with a
   stream that is a pure function of (base seed, region) — splitmix64
   over the region index — so a region-sharded fault matrix replays the
   same damage per region at every shard width, including serial. *)
let region_seed ~base ~region =
  let z = Int64.add base (Int64.mul (Int64.of_int (region + 1)) 0x9E3779B97F4A7C15L) in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let on_corrupted t (spec : Corrupt.spec) bits =
  C.incr t.c.c_frames_corrupted;
  C.add t.c.c_bits_flipped bits;
  match spec.Corrupt.region with
  | Corrupt.Header -> C.incr t.c.c_header_corruptions
  | Corrupt.Payload -> C.incr t.c.c_payload_corruptions
  | Corrupt.Trailer -> C.incr t.c.c_trailer_corruptions
  | Corrupt.Any -> ()

let create ?(seed = 0x51123E17L) world =
  let cnt ?help name =
    Telemetry.Registry.counter (W.metrics world) ?help ("faults_" ^ name)
  in
  let t =
    {
      world;
      rng = Sim.Rng.create seed;
      c =
        {
          c_links_failed = cnt "links_failed";
          c_links_restored = cnt "links_restored";
          c_crashes = cnt "crashes" ~help:"router crashes the injector triggered";
          c_restarts = cnt "restarts";
          c_frames_corrupted = cnt "frames_corrupted";
          c_bits_flipped = cnt "bits_flipped";
          c_header_corruptions = cnt "header_corruptions";
          c_payload_corruptions = cnt "payload_corruptions";
          c_trailer_corruptions = cnt "trailer_corruptions";
          c_directory_freezes = cnt "directory_freezes";
        };
      corruption = Hashtbl.create 8;
    }
  in
  W.set_corruptor world (fun ~link bytes ->
      match Hashtbl.find_opt t.corruption link.G.link_id with
      | None -> None
      | Some spec -> (
        match Corrupt.corrupt t.rng spec bytes with
        | None -> None
        | Some (damaged, bits) ->
          on_corrupted t spec bits;
          Some damaged));
  t

let set_link_corruption t ~link spec =
  Hashtbl.replace t.corruption link.G.link_id spec

let engine t = W.engine t.world

let do_fail t link =
  if G.link_alive (W.graph t.world) link then begin
    W.fail_link t.world link;
    C.incr t.c.c_links_failed
  end

let do_restore t link =
  if not (G.link_alive (W.graph t.world) link) then begin
    W.restore_link t.world link;
    C.incr t.c.c_links_restored
  end

let exp_time t mean =
  max 1 (Sim.Time.of_seconds (Sim.Rng.exponential t.rng ~mean:(Sim.Time.to_seconds mean)))

let flap_link t ?(start = Sim.Time.zero) ?until ~mean_up ~mean_down link =
  let eng = engine t in
  let stopped time = match until with Some u -> time >= u | None -> false in
  let rec fail_at time =
    if not (stopped time) then
      Sim.Engine.schedule_at eng ~time (fun () ->
          do_fail t link;
          restore_at (time + exp_time t mean_down))
  and restore_at time =
    (* Restores run even past [until]: a flapping link must not be left
       dead forever just because the experiment window closed. *)
    Sim.Engine.schedule_at eng ~time (fun () ->
        do_restore t link;
        fail_at (time + exp_time t mean_up))
  in
  fail_at (start + exp_time t mean_up)

let crash_router_at t ~at ?down_for router =
  let eng = engine t in
  Sim.Engine.schedule_at eng ~time:at (fun () ->
      if Router.up router then begin
        Router.crash router;
        C.incr t.c.c_crashes
      end;
      match down_for with
      | None -> ()
      | Some d ->
        Sim.Engine.schedule eng ~delay:d (fun () ->
            if not (Router.up router) then begin
              Router.restart router;
              C.incr t.c.c_restarts
            end))

let freeze_directory_at t ~at ?thaw_after dir =
  let eng = engine t in
  Sim.Engine.schedule_at eng ~time:at (fun () ->
      Dirsvc.Directory.set_frozen dir true;
      C.incr t.c.c_directory_freezes;
      Telemetry.Events.emit (W.events t.world) ~time:(W.now t.world)
        (Telemetry.Events.Directory_frozen { frozen = true });
      match thaw_after with
      | None -> ()
      | Some d ->
        Sim.Engine.schedule eng ~delay:d (fun () ->
            Dirsvc.Directory.set_frozen dir false;
            Telemetry.Events.emit (W.events t.world)
              ~time:(W.now t.world)
              (Telemetry.Events.Directory_frozen { frozen = false })))
