(* Tests for the topology, platform and network models. *)

open Tm2c_engine
open Tm2c_noc

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---- Topology ---- *)

let test_scc_layout () =
  check_int "48 cores" 48 (Topology.n_cores Topology.scc);
  check_int "2 cores per tile" 0 (Topology.core_tile Topology.scc 1);
  check_int "core 2 on tile 1" 1 (Topology.core_tile Topology.scc 2);
  Alcotest.(check (pair int int)) "tile 0 at origin" (0, 0) (Topology.tile_coords Topology.scc 0);
  Alcotest.(check (pair int int)) "tile 7 at (1,1)" (1, 1) (Topology.tile_coords Topology.scc 7)

let test_hops () =
  let t = Topology.scc in
  check_int "same tile" 0 (Topology.hops t 0 1);
  check_int "adjacent tiles" 1 (Topology.hops t 0 2);
  (* Core 0 on tile (0,0); core 47 on tile 23 = (5,3): 5+3 hops. *)
  check_int "diagonal corners" 8 (Topology.hops t 0 47);
  (* Symmetry over all pairs. *)
  for a = 0 to 47 do
    for b = 0 to 47 do
      if Topology.hops t a b <> Topology.hops t b a then
        Alcotest.failf "hops not symmetric for %d %d" a b
    done
  done

let test_flat_topology () =
  let t = Topology.opteron48 in
  check_int "48 cores" 48 (Topology.n_cores t);
  check_int "no hops" 0 (Topology.hops t 0 47);
  check_int "no mc hops" 0 (Topology.hops_to_mc t ~core:13 ~mc:2)

let test_mc_hops () =
  let t = Topology.scc in
  check_int "corner core to corner mc" 0 (Topology.hops_to_mc t ~core:0 ~mc:0);
  check "mc distance bounded by mesh diameter" true
    (Topology.hops_to_mc t ~core:47 ~mc:0 <= 8);
  check_int "four controllers" 4 (Topology.n_memory_controllers t)

(* The flat coordinate arrays reproduce [tile_coords] and [hops_to_mc]
   for every core and controller, on the SCC, a 512-core mesh and the
   flat machine. *)
let test_flat_coords () =
  List.iter
    (fun t ->
      let xs, ys = Topology.core_xy t and mxs, mys = Topology.mc_xy t in
      for core = 0 to Topology.n_cores t - 1 do
        Alcotest.(check (pair int int))
          "core coordinates" (Topology.tile_coords t (Topology.core_tile t core))
          (xs.(core), ys.(core));
        for mc = 0 to Topology.n_memory_controllers t - 1 do
          check_int "mc hops"
            (Topology.hops_to_mc t ~core ~mc)
            (abs (xs.(core) - mxs.(mc)) + abs (ys.(core) - mys.(mc)))
        done
      done)
    [
      Topology.scc;
      Topology.Mesh { cols = 16; rows = 16; cores_per_tile = 2 };
      Topology.opteron48;
    ]

let hops_triangle =
  QCheck.Test.make ~name:"mesh hops satisfy triangle inequality" ~count:300
    QCheck.(triple (int_bound 47) (int_bound 47) (int_bound 47))
    (fun (a, b, c) ->
      let t = Topology.scc in
      Topology.hops t a c <= Topology.hops t a b + Topology.hops t b c)

(* ---- Platform ---- *)

let test_settings_table () =
  check_int "five settings" 5 (Array.length Platform.scc_settings);
  Alcotest.(check (triple int int int)) "setting 0" (533, 800, 800) Platform.scc_settings.(0);
  Alcotest.(check (triple int int int)) "setting 1" (800, 1600, 1066) Platform.scc_settings.(1);
  Alcotest.check_raises "setting 5 rejected"
    (Invalid_argument "Platform.scc_setting: setting must be in 0-4") (fun () ->
      ignore (Platform.scc_setting 5))

let rt p active =
  (* Round trip between core 0 and core 47 equals two one-way trips. *)
  Platform.one_way_ns p ~active ~src:0 ~dst:47 +. Platform.one_way_ns p ~active ~src:47 ~dst:0

let test_latency_calibration () =
  (* Fig. 8(a): the SCC round trip is ~5.1 us on 2 cores and ~12.4 us
     on 48 cores; we accept a 25% band. *)
  let rt2 = rt Platform.scc 2 /. 1e3 and rt48 = rt Platform.scc 48 /. 1e3 in
  check "SCC rt@2 in band" true (rt2 > 5.1 *. 0.75 && rt2 < 5.1 *. 1.25);
  check "SCC rt@48 in band" true (rt48 > 12.4 *. 0.75 && rt48 < 12.4 *. 1.25);
  (* SCC800 messaging beats the multi-core's at 48 cores (Section 7.1),
     while the multi-core is fastest at 2 cores. *)
  check "SCC800 fastest at 48" true
    (rt Platform.scc800 48 < rt Platform.opteron 48
    && rt Platform.scc800 48 < rt Platform.scc 48);
  check "Opteron fastest at 2" true
    (rt Platform.opteron 2 < rt Platform.scc800 2)

let test_latency_monotone () =
  List.iter
    (fun p ->
      let prev = ref 0.0 in
      List.iter
        (fun n ->
          let v = rt p n in
          check "rt grows with active cores" true (v > !prev);
          prev := v)
        [ 2; 4; 8; 16; 32; 48 ])
    Platform.all

let test_memory_faster_than_messages () =
  (* Section 6.2: "On the SCC, a memory access is faster than a
     message delivery" — the premise of elastic-read. *)
  List.iter
    (fun p ->
      check "memory read beats one-way message" true
        (Platform.mem_read_ns p ~core:0 ~mc:3 < Platform.one_way_ns p ~active:2 ~src:0 ~dst:1))
    Platform.all

let test_cycles_ns () =
  let p = Platform.scc in
  Alcotest.(check (float 0.01)) "533 cycles ~ 1us" 1000.0 (Platform.cycles_ns p 533)

(* ---- Network ---- *)

let test_network_roundtrip_timing () =
  let sim = Sim.create () in
  let net = Network.create sim Platform.scc ~active:2 in
  let rt_measured = ref 0.0 in
  Sim.spawn sim (fun () ->
      let t0 = Sim.now sim in
      Network.send net ~src:0 ~dst:1 `Ping;
      (match Network.recv net ~self:0 with `Pong -> () | `Ping -> Alcotest.fail "bad msg");
      rt_measured := Sim.now sim -. t0);
  Sim.spawn sim (fun () ->
      match Network.recv net ~self:1 with
      | `Ping -> Network.send net ~src:1 ~dst:0 `Pong
      | `Pong -> Alcotest.fail "bad msg");
  let _ = Sim.run sim () in
  let expected =
    Platform.one_way_ns Platform.scc ~active:2 ~src:0 ~dst:1
    +. Platform.one_way_ns Platform.scc ~active:2 ~src:1 ~dst:0
  in
  Alcotest.(check (float 1.0)) "measured rt = model rt" expected !rt_measured;
  check_int "two messages" 2 (Network.sent net)

let test_network_fifo_per_pair () =
  let sim = Sim.create () in
  let net = Network.create sim Platform.scc ~active:2 in
  let got = ref [] in
  Sim.spawn sim (fun () ->
      for i = 1 to 5 do
        Network.send net ~src:0 ~dst:1 i
      done);
  Sim.spawn sim (fun () ->
      for _ = 1 to 5 do
        got := Network.recv net ~self:1 :: !got
      done);
  let _ = Sim.run sim () in
  Alcotest.(check (list int)) "per-pair FIFO" [ 1; 2; 3; 4; 5 ] (List.rev !got)

let test_network_try_recv_costs () =
  let sim = Sim.create () in
  let net = Network.create sim Platform.scc ~active:48 in
  Sim.spawn sim (fun () ->
      let t0 = Sim.now sim in
      (match Network.try_recv net ~self:0 with
      | None -> ()
      | Some _ -> Alcotest.fail "unexpected message");
      let scan = Sim.now sim -. t0 in
      check "empty poll charges a full scan" true (scan > 0.0))
  ;
  let _ = Sim.run sim () in
  ()

(* Every core pair's flight time against the per-pair expression the
   network once tabulated, bit for bit: hops x hop latency + active
   cores x poll cost. *)
let test_network_flight_every_pair () =
  List.iter
    (fun (p : Platform.t) ->
      let n = Platform.n_cores p in
      List.iter
        (fun active ->
          let net = Network.create (Sim.create ()) p ~active in
          for src = 0 to n - 1 do
            for dst = 0 to n - 1 do
              let hops = Topology.hops p.Platform.topology src dst in
              let expected =
                (float_of_int hops *. p.Platform.msg_hop_ns)
                +. (float_of_int active *. p.Platform.msg_poll_per_core_ns)
              in
              let got = Network.flight_ns net ~src ~dst in
              if Int64.bits_of_float got <> Int64.bits_of_float expected then
                Alcotest.failf "%s active %d: %d->%d flight %h, expected %h" p.Platform.name
                  active src dst got expected
            done
          done)
        [ 2; n ])
    [
      Platform.scc;
      Platform.scc800;
      Platform.opteron;
      Platform.scc_mesh ~cols:3 ~rows:5;
      Platform.scc_mesh ~cols:16 ~rows:16;
    ]

(* The one-pass top-K selection against the sort-based definition it
   replaced, on small matrices with many ties. *)
let top_pairs_matches_sort =
  QCheck.Test.make ~name:"top_pairs = stable sort of the positive pairs" ~count:500
    QCheck.(triple (int_range 0 9) (int_range 0 20) (array_of_size (Gen.return 81) (int_range 0 3)))
    (fun (n, limit, cells) ->
      let weight src dst = cells.((src * 9) + dst) in
      let acc = ref [] in
      for src = 0 to n - 1 do
        for dst = 0 to n - 1 do
          let c = weight src dst in
          if c > 0 then acc := (src, dst, c) :: !acc
        done
      done;
      let sorted = List.sort (fun (_, _, a) (_, _, b) -> compare b a) !acc in
      Network.top_pairs ~limit n weight = List.filteri (fun i _ -> i < limit) sorted)

(* Per-link counts against a naive n x n model. Sends are logged and
   folded into the table when the log fills (512 entries) or before a
   read, so each case sends up to 25 logs' worth, with reads
   (every exact count, the whole table and the top links) at random
   points between. *)
let link_counts_match_model =
  QCheck.Test.make ~name:"link_count(s), top_links = naive per-link counts" ~count:30
    QCheck.(
      pair (int_range 1 3)
        (list_of_size Gen.(int_range 0 13_000) (pair (int_range 0 1799) (int_range 0 35))))
    (fun (cols, ops) ->
      let sim = Sim.create () in
      let platform = Platform.scc_mesh ~cols ~rows:1 in
      let n = Platform.n_cores platform in
      let net = Network.create sim platform ~active:n in
      let model = Array.make (n * n) 0 in
      let agrees = ref true in
      (* Any accessor may be the first to read an unfolded log. *)
      let read first =
        let top () =
          let naive = Network.top_pairs ~limit:5 n (fun src dst -> model.((src * n) + dst)) in
          if Network.top_links ~limit:5 net <> naive then agrees := false
        in
        let all () = if Network.link_counts net <> model then agrees := false in
        if first = 0 then top () else if first = 1 then all ();
        for src = 0 to n - 1 do
          for dst = 0 to n - 1 do
            if Network.link_count net ~src ~dst <> model.((src * n) + dst) then agrees := false
          done
        done;
        top ();
        all ()
      in
      Sim.spawn sim (fun () ->
          List.iter
            (fun (r, link) ->
              let link = link mod (n * n) in
              if r < 3 then read r
              else begin
                Network.send net ~src:(link / n) ~dst:(link mod n) ();
                model.(link) <- model.(link) + 1
              end)
            ops;
          read 0);
      let _ = Sim.run sim () in
      !agrees)

let suite =
  [
    ("topology: SCC layout", `Quick, test_scc_layout);
    ("topology: XY hops", `Quick, test_hops);
    ("topology: flat", `Quick, test_flat_topology);
    ("topology: memory controllers", `Quick, test_mc_hops);
    ("topology: flat coordinates agree", `Quick, test_flat_coords);
    QCheck_alcotest.to_alcotest hops_triangle;
    ("platform: settings table", `Quick, test_settings_table);
    ("platform: Fig 8a calibration", `Quick, test_latency_calibration);
    ("platform: latency monotone in cores", `Quick, test_latency_monotone);
    ("platform: memory faster than messages", `Quick, test_memory_faster_than_messages);
    ("platform: cycle conversion", `Quick, test_cycles_ns);
    ("network: round-trip timing", `Quick, test_network_roundtrip_timing);
    ("network: FIFO per pair", `Quick, test_network_fifo_per_pair);
    ("network: poll cost", `Quick, test_network_try_recv_costs);
    ("network: flight time of every core pair", `Quick, test_network_flight_every_pair);
    QCheck_alcotest.to_alcotest top_pairs_matches_sort;
    QCheck_alcotest.to_alcotest link_counts_match_model;
  ]
