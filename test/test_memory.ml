(* Tests for the shared-memory substrate: shmem, allocator, atomic
   registers, and the coherent-cache model. *)

open Tm2c_engine
open Tm2c_noc
open Tm2c_memory

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let with_sim platform f =
  let sim = Sim.create () in
  let shmem = Shmem.create sim platform ~words:(1 lsl 18) in
  f sim shmem

(* ---- Shmem ---- *)

let test_shmem_rw () =
  with_sim Platform.scc (fun sim shmem ->
      Sim.spawn sim (fun () ->
          Shmem.write shmem ~core:0 100 42;
          check_int "read back" 42 (Shmem.read shmem ~core:1 100));
      let _ = Sim.run sim () in
      check_int "peek" 42 (Shmem.peek shmem 100);
      check_int "reads counted" 1 (Shmem.n_reads shmem);
      check_int "writes counted" 1 (Shmem.n_writes shmem))

let test_shmem_poke () =
  with_sim Platform.scc (fun _sim shmem ->
      Shmem.poke shmem 5 99;
      check_int "poke visible" 99 (Shmem.peek shmem 5);
      check_int "poke untimed/uncounted" 0 (Shmem.n_writes shmem))

let test_shmem_latency () =
  with_sim Platform.scc (fun sim shmem ->
      Sim.spawn sim (fun () -> ignore (Shmem.read shmem ~core:0 10));
      let _ = Sim.run sim () in
      let expected =
        Platform.mem_read_ns Platform.scc ~core:0 ~mc:(Shmem.mc_of_addr shmem 10)
      in
      Alcotest.(check (float 0.01)) "read latency charged" expected (Sim.now sim))

let test_shmem_mc_striping () =
  with_sim Platform.scc (fun _sim shmem ->
      (* Contiguous small structures live in one controller. *)
      check_int "same region, same mc" (Shmem.mc_of_addr shmem 0)
        (Shmem.mc_of_addr shmem 1000);
      (* Distinct 64Ki-word regions rotate over the 4 controllers. *)
      check "regions spread over controllers" true
        (Shmem.mc_of_addr shmem 0 <> Shmem.mc_of_addr shmem (1 lsl 16)))

let test_cache_hit_faster () =
  with_sim Platform.opteron (fun sim shmem ->
      let miss = ref 0.0 and hit = ref 0.0 in
      Sim.spawn sim (fun () ->
          let t0 = Sim.now sim in
          ignore (Shmem.read shmem ~core:0 50);
          miss := Sim.now sim -. t0;
          let t1 = Sim.now sim in
          ignore (Shmem.read shmem ~core:0 50);
          hit := Sim.now sim -. t1);
      let _ = Sim.run sim () in
      check "cache hit cheaper than miss" true (!hit < !miss /. 2.0))

let test_cache_invalidation () =
  with_sim Platform.opteron (fun sim shmem ->
      let second = ref 0.0 in
      Sim.spawn sim (fun () ->
          ignore (Shmem.read shmem ~core:0 60);
          (* Remote write invalidates core 0's copy. *)
          Shmem.write shmem ~core:1 60 7;
          let t0 = Sim.now sim in
          check_int "fresh value" 7 (Shmem.read shmem ~core:0 60);
          second := Sim.now sim -. t0);
      let _ = Sim.run sim () in
      check "invalidated read is a miss" true
        (!second >= Platform.opteron.Platform.mem_base_ns))

let test_no_cache_on_scc () =
  with_sim Platform.scc (fun sim shmem ->
      let a = ref 0.0 and b = ref 0.0 in
      Sim.spawn sim (fun () ->
          let t0 = Sim.now sim in
          ignore (Shmem.read shmem ~core:0 70);
          a := Sim.now sim -. t0;
          let t1 = Sim.now sim in
          ignore (Shmem.read shmem ~core:0 70);
          b := Sim.now sim -. t1);
      let _ = Sim.run sim () in
      Alcotest.(check (float 0.01)) "non-coherent: repeat read same cost" !a !b)

(* ---- Shmem: on-demand storage ---- *)

let words = 1 lsl 18

let test_shmem_untouched_zero () =
  List.iter
    (fun platform ->
      with_sim platform (fun sim shmem ->
          let got = ref [] in
          Sim.spawn sim (fun () ->
              got := List.map (Shmem.read shmem ~core:0) [ 1; 5000; words / 2; words - 1 ]);
          let _ = Sim.run sim () in
          Alcotest.(check (list int)) "timed reads of untouched words" [ 0; 0; 0; 0 ] !got;
          check_int "peek of untouched top word" 0 (Shmem.peek shmem (words - 1))))
    [ Platform.scc; Platform.opteron ]

(* On the coherent platform a cached copy is valid while the word's
   version is unchanged: an untouched word is cached at version 0 and
   stays a hit across a store elsewhere that grows the storage, then
   misses once another core writes it. *)
let test_shmem_untouched_version_zero () =
  with_sim Platform.opteron (fun sim shmem ->
      let hit = (Option.get Platform.opteron.Platform.cache).Platform.hit_ns in
      let addr = words / 2 in
      let timed f =
        let t0 = Sim.now sim in
        f ();
        Sim.now sim -. t0
      in
      let after_grow = ref 0.0 and after_write = ref 0.0 in
      Sim.spawn sim (fun () ->
          ignore (Shmem.read shmem ~core:0 addr);
          Shmem.write shmem ~core:1 (words - 1) 3;
          after_grow := timed (fun () -> ignore (Shmem.read shmem ~core:0 addr));
          Shmem.write shmem ~core:1 addr 9;
          after_write :=
            timed (fun () -> check_int "written value" 9 (Shmem.read shmem ~core:0 addr)));
      let _ = Sim.run sim () in
      Alcotest.(check (float 0.0)) "version 0 survives growth: hit" hit !after_grow;
      check "remote write invalidates: miss" true (!after_write > hit))

let test_shmem_out_of_range () =
  with_sim Platform.scc (fun sim shmem ->
      let bounds = Invalid_argument "index out of bounds" in
      List.iter
        (fun addr ->
          Alcotest.check_raises "peek" bounds (fun () -> ignore (Shmem.peek shmem addr));
          Alcotest.check_raises "poke" bounds (fun () -> Shmem.poke shmem addr 1))
        [ -1; words ];
      let raised = ref [] in
      let catch f = match f () with () -> "no exception" | exception Invalid_argument m -> m in
      Sim.spawn sim (fun () ->
          List.iter
            (fun addr ->
              raised := catch (fun () -> ignore (Shmem.read shmem ~core:0 addr)) :: !raised;
              raised := catch (fun () -> Shmem.write shmem ~core:0 addr 1) :: !raised)
            [ -1; words ]);
      let _ = Sim.run sim () in
      Alcotest.(check (list string))
        "timed accesses" (List.init 4 (fun _ -> "index out of bounds")) !raised)

let test_shmem_growth_keeps_data () =
  with_sim Platform.scc (fun sim shmem ->
      let low = [ 1; 7; 1000; 4000 ] in
      List.iter (fun a -> Shmem.poke shmem a (a * 3)) low;
      Sim.spawn sim (fun () -> Shmem.write shmem ~core:0 (words - 1) 77);
      let _ = Sim.run sim () in
      check_int "top word written" 77 (Shmem.peek shmem (words - 1));
      List.iter (fun a -> check_int "earlier data kept" (a * 3) (Shmem.peek shmem a)) low;
      check_int "untouched word between" 0 (Shmem.peek shmem (words - 2)))

let test_shmem_words () =
  with_sim Platform.scc (fun _sim shmem ->
      check_int "configured size" words (Shmem.words shmem);
      Shmem.poke shmem (words - 1) 1;
      check_int "configured size after growth" words (Shmem.words shmem));
  let shmem = Shmem.create (Sim.create ()) Platform.scc ~words:(1 lsl 20) in
  check "no words-sized allocation" true (Obj.reachable_words (Obj.repr shmem) < 1 lsl 16)

(* A fresh runtime holds only what a run needs before it starts: an
   eager words-sized memory or an n x n per-pair table would blow
   these bounds. A 4-core run on the 4,096-core mesh reaches 0.97 MB:
   what stays platform-wide (clock skews, the register file, fault
   state, the mesh's coordinate tables) is linear in the platform.
   Per-core statistics and phase sketches sized by the platform reach
   6.4 MB; a per-link table sized by the platform, not the run, is
   134 MB. *)
let test_runtime_footprint () =
  List.iter
    (fun (name, platform, total, limit_mb) ->
      let rt =
        Tm2c_core.Runtime.create (Tm2c_harness.Exp.config ~platform ~total ())
      in
      check_int "configured memory" (1 lsl 20)
        (Shmem.words (Tm2c_core.Runtime.shmem rt));
      let mb = float_of_int (Obj.reachable_words (Obj.repr rt) * 8) /. 1e6 in
      if mb >= limit_mb then
        Alcotest.failf "%s: fresh runtime reaches %.1f MB (limit %.0f MB)" name mb limit_mb)
    [
      ("SCC-48", Platform.scc, 48, 2.0);
      ("mesh-512", Platform.scc_mesh ~cols:16 ~rows:16, 512, 6.0);
      ("mesh-4096, 4 cores", Platform.scc_mesh ~cols:32 ~rows:64, 4, 1.2);
    ]

(* ---- Alloc ---- *)

let test_alloc_basic () =
  with_sim Platform.scc (fun _sim shmem ->
      let a = Alloc.create shmem ~base:1 ~limit:100 in
      let x = Alloc.alloc a ~words:10 in
      let y = Alloc.alloc a ~words:10 in
      check "disjoint blocks" true (y >= x + 10 || x >= y + 10);
      check_int "live words" 20 (Alloc.live_words a))

let test_alloc_reuse_fifo () =
  with_sim Platform.scc (fun _sim shmem ->
      let a = Alloc.create shmem ~base:1 ~limit:100 in
      let x = Alloc.alloc a ~words:2 in
      let y = Alloc.alloc a ~words:2 in
      Alloc.free a x ~words:2;
      Alloc.free a y ~words:2;
      (* FIFO reuse: x comes back before y (delays ABA). *)
      check_int "fifo reuse" x (Alloc.alloc a ~words:2);
      check_int "then y" y (Alloc.alloc a ~words:2))

let test_alloc_oom () =
  with_sim Platform.scc (fun _sim shmem ->
      let a = Alloc.create shmem ~base:1 ~limit:10 in
      let _ = Alloc.alloc a ~words:8 in
      Alcotest.check_raises "out of memory" Out_of_memory (fun () ->
          ignore (Alloc.alloc a ~words:8)))

let test_alloc_size_classes () =
  with_sim Platform.scc (fun _sim shmem ->
      let a = Alloc.create shmem ~base:1 ~limit:100 in
      let x = Alloc.alloc a ~words:4 in
      Alloc.free a x ~words:4;
      (* A different size class does not reuse the freed block. *)
      let y = Alloc.alloc a ~words:2 in
      check "size classes are separate" true (y <> x || y = x && false))

(* ---- Atomic registers ---- *)

let test_tas () =
  let sim = Sim.create () in
  let regs = Atomic_reg.create sim Platform.scc ~count:4 in
  Sim.spawn sim (fun () ->
      check "first tas acquires" true (Atomic_reg.tas regs ~core:0 ~reg:1);
      check "second tas fails" false (Atomic_reg.tas regs ~core:1 ~reg:1);
      Atomic_reg.write regs ~core:0 ~reg:1 0;
      check "after release, tas acquires" true (Atomic_reg.tas regs ~core:1 ~reg:1));
  let _ = Sim.run sim () in
  ()

let test_cas () =
  let sim = Sim.create () in
  let regs = Atomic_reg.create sim Platform.scc ~count:4 in
  Sim.spawn sim (fun () ->
      Atomic_reg.write regs ~core:0 ~reg:2 10;
      check "cas succeeds on match" true
        (Atomic_reg.cas regs ~core:0 ~reg:2 ~expect:10 ~repl:11);
      check "cas fails on mismatch" false
        (Atomic_reg.cas regs ~core:0 ~reg:2 ~expect:10 ~repl:12);
      check_int "value is from the successful cas" 11 (Atomic_reg.read regs ~core:0 ~reg:2));
  let _ = Sim.run sim () in
  ()

let test_reg_latency () =
  let sim = Sim.create () in
  let regs = Atomic_reg.create sim Platform.scc ~count:1 in
  Sim.spawn sim (fun () -> ignore (Atomic_reg.read regs ~core:0 ~reg:0));
  let _ = Sim.run sim () in
  Alcotest.(check (float 0.01)) "register access charged"
    Platform.scc.Platform.tas_ns (Sim.now sim)

let alloc_no_overlap =
  QCheck.Test.make ~name:"allocator never hands out overlapping live blocks" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 40) (int_range 1 8))
    (fun sizes ->
      let sim = Sim.create () in
      let shmem = Shmem.create sim Platform.scc ~words:4096 in
      let a = Alloc.create shmem ~base:1 ~limit:4000 in
      let live = Hashtbl.create 16 in
      let ok = ref true in
      List.iteri
        (fun i words ->
          let addr = Alloc.alloc a ~words in
          for w = addr to addr + words - 1 do
            if Hashtbl.mem live w then ok := false;
            Hashtbl.add live w ()
          done;
          (* Free every other block to exercise reuse. *)
          if i mod 2 = 0 then begin
            for w = addr to addr + words - 1 do
              Hashtbl.remove live w
            done;
            Alloc.free a addr ~words
          end)
        sizes;
      !ok)

let suite =
  [
    ("shmem: read/write/peek", `Quick, test_shmem_rw);
    ("shmem: poke untimed", `Quick, test_shmem_poke);
    ("shmem: read latency", `Quick, test_shmem_latency);
    ("shmem: controller striping", `Quick, test_shmem_mc_striping);
    ("shmem: coherent cache hit", `Quick, test_cache_hit_faster);
    ("shmem: coherent invalidation", `Quick, test_cache_invalidation);
    ("shmem: SCC has no cache", `Quick, test_no_cache_on_scc);
    ("shmem: untouched words read 0", `Quick, test_shmem_untouched_zero);
    ("shmem: untouched words are version 0", `Quick, test_shmem_untouched_version_zero);
    ("shmem: out-of-range addresses raise", `Quick, test_shmem_out_of_range);
    ("shmem: growth keeps data", `Quick, test_shmem_growth_keeps_data);
    ("shmem: words is the configured size", `Quick, test_shmem_words);
    ("footprint: fresh runtime", `Quick, test_runtime_footprint);
    ("alloc: basic", `Quick, test_alloc_basic);
    ("alloc: FIFO reuse", `Quick, test_alloc_reuse_fifo);
    ("alloc: out of memory", `Quick, test_alloc_oom);
    ("alloc: size classes", `Quick, test_alloc_size_classes);
    QCheck_alcotest.to_alcotest alloc_no_overlap;
    ("atomic_reg: test-and-set", `Quick, test_tas);
    ("atomic_reg: compare-and-swap", `Quick, test_cas);
    ("atomic_reg: latency", `Quick, test_reg_latency);
  ]
