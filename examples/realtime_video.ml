(* Real-time traffic over Sirpent (§2.1, §8): a video stream at preemptive
   priority 7 shares a trunk with a background file transfer at sub-normal
   priority. The type-of-service field only costs anything when packets
   contend; preemption keeps the video's inter-frame spacing, and the
   receiver uses VMTP-style creation timestamps to reconstruct the
   original timing ("jitter is handled by selectively delaying data
   delivery to recreate the original packet transmission spacing").

   Run with:  dune exec examples/realtime_video.exe *)

module G = Topo.Graph

let pf = Printf.printf

let frame_interval = Sim.Time.ms 5 (* 200 frames/s *)
let frame_bytes = 1000
let n_frames = 200

let run ~video_priority ~label =
  let g = G.create () in
  let cam = G.add_node g G.Host and ftp = G.add_node g G.Host in
  let r1 = G.add_node g G.Router and r2 = G.add_node g G.Router in
  let tv = G.add_node g G.Host and sink = G.add_node g G.Host in
  let props = G.default_props in
  ignore (G.connect g cam r1 props);
  ignore (G.connect g ftp r1 props);
  ignore (G.connect g r1 r2 props) (* shared trunk *);
  ignore (G.connect g r2 tv props);
  ignore (G.connect g r2 sink props);
  let engine = Sim.Engine.create () in
  let world = Netsim.World.create engine g in
  ignore (Sirpent.Router.create world ~node:r1 ());
  ignore (Sirpent.Router.create world ~node:r2 ());
  let h_cam = Sirpent.Host.create world ~node:cam in
  let h_ftp = Sirpent.Host.create world ~node:ftp in
  let h_tv = Sirpent.Host.create world ~node:tv in
  let h_sink = Sirpent.Host.create world ~node:sink in
  Sirpent.Host.set_receive h_sink (fun _ ~packet:_ ~in_port:_ -> ());

  let metric (_ : G.link) = 1.0 in
  let route src dst =
    Sirpent.Route.of_hops g ~src (Option.get (G.shortest_path g ~metric ~src ~dst))
  in
  let video_route = route cam tv and ftp_route = route ftp sink in

  (* Receiver-side jitter measurement: the camera stamps each frame with
     its creation time (simulated ms clock, as VMTP does); the TV compares
     inter-arrival spacing against the original 5 ms spacing. *)
  let arrivals = ref [] in
  Sirpent.Host.set_receive h_tv (fun _ ~packet ~in_port:_ ->
      let r = Wire.Buf.reader_of_bytes packet.Viper.Packet.data in
      let stamp_ms = Wire.Buf.get_u32_int r in
      arrivals := (Sim.Engine.now engine, stamp_ms) :: !arrivals);

  (* Camera: one frame every 5 ms at the video priority. *)
  for i = 0 to n_frames - 1 do
    Sim.Engine.schedule_at engine ~time:((i + 1) * frame_interval) (fun () ->
        let w = Wire.Buf.create_writer frame_bytes in
        Wire.Buf.put_u32_int w (Sim.Engine.now engine / 1_000_000);
        Wire.Buf.put_zeros w (frame_bytes - 4);
        ignore
          (Sirpent.Host.send h_cam ~route:video_route ~priority:video_priority
             ~data:(Wire.Buf.contents w) ()))
  done;
  (* File transfer: back-to-back 1400-byte packets at sub-normal priority
     0xF, saturating the trunk. *)
  let rec ftp_blast i t =
    if i < 1200 then
      Sim.Engine.schedule_at engine ~time:t (fun () ->
          ignore
            (Sirpent.Host.send h_ftp ~route:ftp_route ~priority:0xF
               ~data:(Bytes.make 1400 'f') ());
          ftp_blast (i + 1) (t + Sim.Time.us 1150))
  in
  ftp_blast 0 (Sim.Time.us 100);
  Sim.Engine.run ~until:(Sim.Time.s 3) engine;

  (* Jitter: deviation of inter-arrival gaps from the 5 ms frame interval. *)
  let times = List.rev_map fst !arrivals in
  let gaps =
    match times with
    | [] | [ _ ] -> []
    | first :: rest ->
      let rec walk prev acc = function
        | [] -> List.rev acc
        | x :: tl -> walk x ((x - prev) :: acc) tl
      in
      walk first [] rest
  in
  let jitter = Sim.Stats.Summary.create () in
  List.iter
    (fun gap ->
      Sim.Stats.Summary.add jitter (abs_float (Sim.Time.to_ms gap -. Sim.Time.to_ms frame_interval)))
    gaps;
  pf "%-28s frames %3d/%d  mean |jitter| %.3f ms  max %.3f ms\n" label
    (List.length times) n_frames
    (Sim.Stats.Summary.mean jitter)
    (Sim.Stats.Summary.max jitter);
  (* Playout reconstruction with the library buffer: each frame is
     delivered at creation + 10 ms; anything later is a playout miss. *)
  let playout_engine = Sim.Engine.create () in
  let playout =
    Vmtp.Playout.create playout_engine ~target_delay:(Sim.Time.ms 10)
      ~deliver:(fun _ -> ())
  in
  List.iter
    (fun (arrival, stamp_ms) ->
      Sim.Engine.schedule_at playout_engine ~time:arrival (fun () ->
          ignore (Vmtp.Playout.offer playout ~timestamp_ms:stamp_ms ~data:Bytes.empty)))
    (List.rev !arrivals);
  Sim.Engine.run playout_engine;
  pf "%-28s playout: %d on time, %d missed the 10 ms budget\n" label
    (Vmtp.Playout.delivered playout) (Vmtp.Playout.late playout)

let () =
  pf "video vs bulk transfer on a shared 10 Mb/s trunk\n";
  pf "------------------------------------------------\n";
  run ~video_priority:7 ~label:"priority 7 (preemptive)";
  run ~video_priority:0 ~label:"priority 0 (best effort)"
