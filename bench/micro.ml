(* Bechamel micro-benchmarks: the per-packet software costs behind §6.1.
   One Test.make per operation; results as ns/op estimates. *)

open Bechamel
open Toolkit

module Seg = Viper.Segment
module Pkt = Viper.Packet

let ether_info =
  let w = Wire.Buf.create_writer 14 in
  Ether.Frame.write_header w
    {
      Ether.Frame.dst = Ether.Addr.of_host_id 2;
      src = Ether.Addr.of_host_id 1;
      ethertype = Ether.Frame.ethertype_sirpent;
    };
  Wire.Buf.contents w

let sample_segment = Seg.make ~info:ether_info ~port:3 ()
let sample_segment_bytes = Seg.encode sample_segment

let sample_packet =
  Pkt.build
    ~route:
      [
        Seg.make ~info:ether_info ~port:3 ();
        Seg.make ~port:7 ();
        Seg.make ~port:Seg.local_port ();
      ]
    ~data:(Bytes.make 1000 'd')

let return_seg =
  Seg.make ~flags:{ Seg.no_flags with Seg.rpf = true } ~info:ether_info ~port:11 ()

let traversed_packet =
  (* a packet after 5 hops, for reversal cost *)
  let p = ref (Pkt.build ~route:(List.init 6 (fun k -> Seg.make ~port:(if k = 5 then 0 else k + 1) ())) ~data:(Bytes.make 1000 'd')) in
  for k = 1 to 5 do
    let _, fwd = Pkt.forward !p ~return_seg:(Seg.make ~flags:{ Seg.no_flags with Seg.rpf = true } ~port:(10 + k) ()) in
    p := fwd
  done;
  Result.get_ok (Pkt.parse !p)

let reply_data = Bytes.make 64 'r'

let ip_packet =
  Bytes.cat
    (Ipbase.Header.encode
       {
         Ipbase.Header.tos = 0;
         total_length = 1020;
         ident = 7;
         dont_fragment = false;
         more_fragments = false;
         frag_offset = 0;
         ttl = 32;
         protocol = 17;
         src = Ipbase.Header.addr_of_node 1;
         dst = Ipbase.Header.addr_of_node 2;
       })
    (Bytes.make 1000 'd')

let route_table =
  let tbl = Hashtbl.create 64 in
  for k = 0 to 63 do
    Hashtbl.replace tbl k (k mod 8)
  done;
  tbl

let token_key = Token.Cipher.random_looking_key 1

let token_bytes =
  Token.Capability.to_bytes
    (Token.Capability.mint token_key ~nonce:1
       {
         Token.Capability.router_id = 1;
         port = 3;
         max_priority = 7;
         reverse_ok = true;
         account = 42;
         packet_limit = 0;
         expiry_ms = 0;
       })

let warm_cache =
  let ledger = Token.Account.create () in
  let c =
    Token.Cache.create ~key:token_key ~router_id:1 ~policy:Token.Cache.Optimistic
      ~ledger
  in
  ignore (Token.Cache.complete_verification c ~token:token_bytes ~now_ms:0);
  c

let event_heap =
  (* steady-state churn on a heap holding 256 live events, the working
     set of a busy shard engine *)
  let h = Sim.Heap.create ~dummy:() in
  let t = ref 0 in
  for _ = 1 to 256 do
    incr t;
    Sim.Heap.push h ~time:!t ~seq:0 ()
  done;
  (h, t)

let tests =
  [
    Test.make ~name:"viper segment encode" (Staged.stage (fun () ->
        ignore (Seg.encode sample_segment)));
    Test.make ~name:"sim heap push+pop (256 live)" (Staged.stage (fun () ->
        let h, t = event_heap in
        incr t;
        Sim.Heap.push h ~time:!t ~seq:0 ();
        Sim.Heap.pop_value h));
    Test.make ~name:"viper segment decode" (Staged.stage (fun () ->
        ignore (Seg.decode sample_segment_bytes)));
    Test.make ~name:"sirpent per-hop forward (strip+trailer)" (Staged.stage (fun () ->
        ignore (Pkt.forward sample_packet ~return_seg)));
    Test.make ~name:"ip per-hop forward (cksum+ttl+lookup)" (Staged.stage (fun () ->
        let p = Bytes.copy ip_packet in
        ignore (Ipbase.Header.checksum_ok p);
        ignore (Ipbase.Header.decrement_ttl p);
        let h = Ipbase.Header.decode p in
        ignore (Hashtbl.find_opt route_table (Ipbase.Header.node_of_addr h.Ipbase.Header.dst land 63))));
    Test.make ~name:"token cache hit" (Staged.stage (fun () ->
        ignore
          (Token.Cache.check warm_cache ~token:token_bytes ~port:3 ~priority:0
             ~now_ms:0 ~packet_bytes:1000 ~reverse:false)));
    Test.make ~name:"token full verification" (Staged.stage (fun () ->
        match Token.Capability.of_bytes token_bytes with
        | Some c -> ignore (Token.Capability.verify token_key c)
        | None -> ()));
    Test.make ~name:"return-route reversal (5 hops)" (Staged.stage (fun () ->
        ignore (Pkt.reply traversed_packet ~priority:Token.Priority.normal ~data:reply_data)));
  ]

let run () =
  Util.heading "M  micro-benchmarks (ns per operation)";
  let instances = [ Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.4) ~kde:(Some 500) () in
  let raw =
    List.map
      (fun test -> Benchmark.all cfg instances test)
      tests
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  List.iter
    (fun results ->
      let results = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> Printf.printf "  %-42s %10.1f ns/op\n" name est
          | Some _ | None -> Printf.printf "  %-42s (no estimate)\n" name)
        results)
    raw;
  Printf.printf
    "\nnotes: these compare header-manipulation work only — a real 1989 IP\n\
     router also pays route lookup, buffering and interrupts, which the\n\
     simulator charges as its per-packet process time. The token numbers show\n\
     why the cache exists: a hit is ~30x cheaper than full verification.\n"
