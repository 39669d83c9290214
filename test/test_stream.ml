(* Opacity-oracle and streaming-checker battery.

   Three layers of teeth:

   - Mutation tests: re-open the stale-read window the post-grant
     doom check closes (the [unsafe_skip_doom_check] hook) and require
     the opacity oracle to reject the run with a minimal two-read
     witness while the serializability oracle — which only judges
     committed transactions — stays green. A hand-built history pins
     the same property without the simulator in the loop.

   - Differential tests: the streaming checker's verdict must be
     structurally identical to the batch oracle's over the same event
     stream — QCheck-driven across workload shapes x seeds x fault
     plans, plus the mutated (opacity-violating) run.

   - Bounded memory: the streaming checker's reachable size after a
     run 10x longer must be flat — it retains the concurrency window,
     never the run. *)

open Tm2c_core
open Tm2c_check

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let cfg ?(total = 8) ?(service = 4) ?(seed = 42) () =
  {
    Runtime.platform = Tm2c_noc.Platform.scc;
    total_cores = total;
    service_cores = service;
    deployment = Runtime.Dedicated;
    policy = Cm.Fair_cm;
    wmode = Tx.Lazy;
    batching = true;
    max_skew_ns = 3_000.0;
    seed;
    mem_words = 1 lsl 18;
  }

(* ------------------------------------------------------------------ *)
(* Mutation: the stale-read window.                                    *)
(* ------------------------------------------------------------------ *)

(* The victim (app core 5) reads A, dawdles, reads B. The winner (app
   core 1) writes both words in the gap; FairCM sides with it (equal
   effective time, lower core id), so the victim is doomed mid-flight.
   With the doom check skipped the victim's second read is still
   granted and observes the new B against the old A — a prefix no
   memory snapshot explains. The attempt aborts at its commit CAS
   either way, so the committed history stays serializable: only the
   opacity oracle can see the bug. *)
let run_stale_window ~skip =
  let t = Runtime.create (cfg ()) in
  Runtime.set_skip_doom_check t skip;
  let col = Collector.create () in
  Collector.attach col (Runtime.trace t);
  let a = Tm2c_memory.Alloc.alloc (Runtime.alloc t) ~words:1 in
  let b = Tm2c_memory.Alloc.alloc (Runtime.alloc t) ~words:1 in
  Runtime.host_write t a 10;
  Runtime.host_write t b 20;
  Runtime.start_services t;
  let vctx = Runtime.app_ctx t 5 in
  Runtime.spawn_app t 5 (fun () ->
      Tx.atomic vctx (fun () ->
          ignore (Tx.read vctx a);
          Tm2c_engine.Sim.delay 200_000.0;
          ignore (Tx.read vctx b)));
  let wctx = Runtime.app_ctx t 1 in
  Runtime.spawn_app t 1 (fun () ->
      Tm2c_engine.Sim.delay 20_000.0;
      Tx.atomic wctx (fun () ->
          Tx.write wctx a 11;
          Tx.write wctx b 21));
  let _ = Runtime.run t ~until:1e12 () in
  Collector.detach (Runtime.trace t);
  (a, b, Collector.to_list col)

let test_mutation_stale_read_caught () =
  let a, b, events = run_stale_window ~skip:true in
  let r = Check.run_list events in
  check "history is well-formed" true (r.Check.history.History.anomalies = []);
  check "lock discipline is clean" true (Lockset.ok r.Check.lockset);
  check "committed history stays serializable" true
    (r.Check.serial.Serial.cycle = None);
  check "no corruption" true (r.Check.serial.Serial.corruption = []);
  check "opacity oracle rejects the run" false (Check.passed r);
  match r.Check.serial.Serial.opacity with
  | [] -> Alcotest.fail "expected an inconsistent-read witness"
  | w :: _ ->
      check_int "witness: victim core" 5 w.Serial.ir_core;
      check_int "witness read 1 is the stale A" a w.Serial.ir_addr1;
      check_int "witness value 1 predates the winner" 10 w.Serial.ir_value1;
      check_int "witness read 2 is the fresh B" b w.Serial.ir_addr2;
      check_int "witness value 2 is the winner's" 21 w.Serial.ir_value2;
      check "witness reads are ordered" true (w.Serial.ir_seq1 < w.Serial.ir_seq2)

let test_mutation_stale_read_fixed_protocol_clean () =
  let _, _, events = run_stale_window ~skip:false in
  let r = Check.run_list events in
  check "post-grant doom check closes the window" true (Check.passed r);
  check "opacity attempts were still checked" true
    (r.Check.serial.Serial.n_opacity_checked > 0)

(* The streaming checker must reach the same verdict on the mutated
   run, and its opacity witness must name the same address pair. *)
let test_mutation_streaming_agrees () =
  let a, b, events = run_stale_window ~skip:true in
  let s = Stream.create () in
  List.iter (fun (now, ev) -> Stream.feed s now ev) events;
  let online = Stream.finish s in
  let batch = Check.run_list events in
  check "streaming verdict = batch verdict" true
    (Stream.equal online (Stream.verdict_of_result batch));
  check "streaming flags the opacity violation" false (Stream.passed online);
  check "streaming witness names the (A, B) pair" true
    (List.mem (min a b, max a b) online.Stream.d_opacity
    || List.mem (a, b) online.Stream.d_opacity)

(* ------------------------------------------------------------------ *)
(* Hand-built history: the oracle without the simulator in the loop.   *)
(* ------------------------------------------------------------------ *)

(* Writer atomically installs A:=1, B:=1; the reader sees the old A
   and the new B, then aborts. Not serializable-relevant (the reader
   never commits) — opacity only. The host writes pin both initial
   versions, so the fresh B cannot be explained away as unbound
   initial state. *)
let fractured_abort_events =
  let a = 100 and b = 101 in
  [
    (0.5, Event.Host_write { addr = a; value = 0 });
    (0.6, Event.Host_write { addr = b; value = 0 });
    (1.0, Event.Tx_start { core = 0; attempt = 1; elastic = false });
    (2.0, Event.Tx_start { core = 1; attempt = 1; elastic = false });
    (3.0, Event.Tx_read { core = 1; addr = a; granted = true; value = 0 });
    (4.0, Event.Tx_write { core = 0; addr = a; value = 1 });
    (5.0, Event.Tx_write { core = 0; addr = b; value = 1 });
    (6.0, Event.Tx_commit_begin { core = 0; attempt = 1; n_writes = 2 });
    (* the CM sides with the writer: the reader's A lock is revoked
       (it is now doomed), then the writer's grant lands *)
    ( 6.5,
      Event.Enemy_aborted
        { server = 2; winner = 0; victim = 1; addr = a; conflict = Types.War } );
    (7.0, Event.Wlock_granted { core = 0; addrs = [ a; b ] });
    (8.0, Event.Tx_publish { core = 0; attempt = 1; n_writes = 2 });
    (9.0, Event.Tx_committed { core = 0; attempt = 1; duration_ns = 8.0 });
    (10.0, Event.Tx_read { core = 1; addr = b; granted = true; value = 1 });
    (11.0, Event.Tx_aborted { core = 1; attempt = 1; conflict = None });
  ]

let test_synthetic_inconsistent_prefix_caught () =
  let r = Check.run_list fractured_abort_events in
  check "serializable (the reader never committed)" true
    (r.Check.serial.Serial.cycle = None);
  check "opacity rejects" false (Check.passed r);
  (match r.Check.serial.Serial.opacity with
  | [ w ] ->
      check_int "read 1: the stale A" 100 w.Serial.ir_addr1;
      check_int "read 2: the fresh B" 101 w.Serial.ir_addr2;
      check_int "version pinning read 2 is the writer's publish" w.Serial.ir_pub2
        w.Serial.ir_pub2
  | ws -> Alcotest.failf "expected exactly one witness, got %d" (List.length ws));
  (* The same history under opacity:false is clean: the check is the
     only oracle with jurisdiction over aborted reads. *)
  check "opacity:false accepts" true
    (Check.passed (Check.run_list ~opacity:false fractured_abort_events))

let test_synthetic_streaming_agrees () =
  let s = Stream.create () in
  List.iter (fun (now, ev) -> Stream.feed s now ev) fractured_abort_events;
  let online = Stream.finish s in
  check "streaming verdict = batch verdict" true
    (Stream.equal online
       (Stream.verdict_of_result (Check.run_list fractured_abort_events)));
  check_int "one opacity witness" 1 (List.length online.Stream.d_opacity);
  let s' = Stream.create ~opacity:false () in
  List.iter (fun (now, ev) -> Stream.feed s' now ev) fractured_abort_events;
  check "streaming opacity:false accepts" true (Stream.passed (Stream.finish s'))

(* ------------------------------------------------------------------ *)
(* Differential: streaming verdict == batch verdict.                   *)
(* ------------------------------------------------------------------ *)

let counter_body t ~duration_ns =
  let c = Tm2c_memory.Alloc.alloc (Runtime.alloc t) ~words:1 in
  Tm2c_apps.Workload.drive t ~duration_ns (fun _core ctx _prng () ->
      Tx.atomic ctx (fun () -> Tx.write ctx c (Tx.read ctx c + 1)))

let bank_body t ~duration_ns =
  let accounts = 256 in
  let b = Tm2c_apps.Bank.create t ~accounts ~initial:100 in
  Tm2c_apps.Workload.drive t ~duration_ns (fun _core ctx prng () ->
      if Tm2c_engine.Prng.int prng 100 < 20 then
        ignore (Tm2c_apps.Bank.tx_balance ctx b)
      else
        let src = Tm2c_engine.Prng.int prng accounts
        and dst = Tm2c_engine.Prng.int prng accounts in
        Tm2c_apps.Bank.tx_transfer ctx b ~src ~dst ~amount:1)

(* Elastic early-release list: exercises the oracle paths that exempt
   elastic read prefixes from both read checks. *)
let list_body t ~duration_ns =
  let size = 32 in
  let l = Tm2c_apps.Linkedlist.create t in
  Tm2c_apps.Linkedlist.populate l (Runtime.fork_prng t) ~n:size
    ~key_range:(2 * size);
  Tm2c_apps.Workload.drive t ~duration_ns (fun _core ctx prng () ->
      let k = Tm2c_engine.Prng.int prng (2 * size) in
      let p = Tm2c_engine.Prng.int prng 100 in
      if p < 20 then
        if p land 1 = 0 then
          ignore (Tm2c_apps.Linkedlist.tx_add ~mode:`Elastic_early ctx l k)
        else ignore (Tm2c_apps.Linkedlist.tx_remove ~mode:`Elastic_early ctx l k)
      else ignore (Tm2c_apps.Linkedlist.tx_contains ~mode:`Elastic_early ctx l k))

let shapes =
  [|
    ("counter", 0.5, counter_body);
    ("bank", 0.5, bank_body);
    ("list-elastic", 2.0, list_body);
  |]

let collect_shape ~shape ~seed ~faults =
  let _, duration_ms, body = shapes.(shape) in
  let t = Runtime.create (cfg ~seed ()) in
  if faults then begin
    (match
       Tm2c_noc.Fault.of_spec "drop=0.01,dup=0.02,delay=0.05@2000,crash=3@2e5"
     with
    | Ok p -> Runtime.set_fault_plan t p
    | Error m -> Alcotest.failf "bad fault spec: %s" m);
    Runtime.set_hardening t ~timeout_ns:60_000.0 ~lease_ns:250_000.0 ()
  end;
  let col = Collector.create () in
  Collector.attach col (Runtime.trace t);
  let _ = body t ~duration_ns:(duration_ms *. 1e6) in
  Collector.detach (Runtime.trace t);
  Collector.to_list col

let differential_prop =
  QCheck.Test.make ~name:"streaming verdict = batch verdict on random runs"
    ~count:10
    QCheck.(triple (int_bound (Array.length shapes - 1)) (int_bound 999) bool)
    (fun (shape, seed, faults) ->
      let events = collect_shape ~shape ~seed ~faults in
      let s = Stream.create () in
      List.iter (fun (now, ev) -> Stream.feed s now ev) events;
      let online = Stream.finish s in
      let batch = Check.run_list events in
      if Stream.equal online (Stream.verdict_of_result batch) then true
      else
        QCheck.Test.fail_reportf
          "verdicts diverge on %s seed=%d faults=%b:@\n-- online --@\n%s@\n-- \
           batch --@\n%s"
          (let name, _, _ = shapes.(shape) in
           name)
          seed faults (Stream.report_string s) (Check.report_string batch))

(* ------------------------------------------------------------------ *)
(* Bounded memory: window-sized, not run-sized.                        *)
(* ------------------------------------------------------------------ *)

(* Same workload, 10x the attempts: the streaming checker's reachable
   size right after the last event (GC'd window, chains, address
   residues — everything it would carry into a longer run) must stay
   flat. The batch oracle's history grows linearly by construction;
   this is the claim that separates the two. *)
let test_bounded_memory () =
  let run duration_ms =
    let t = Runtime.create (cfg ~seed:7 ()) in
    let s = Stream.create () in
    Stream.attach s (Runtime.trace t);
    let _ = counter_body t ~duration_ns:(duration_ms *. 1e6) in
    let words = Obj.reachable_words (Obj.repr s) in
    let v = Stream.finish s in
    check "run passes all checkers" true (Stream.passed v);
    (v.Stream.d_attempts, words)
  in
  let n_few, words_few = run 50.0 in
  let n_many, words_many = run 500.0 in
  check "attempt counts differ by an order of magnitude" true
    (n_many >= 8 * n_few);
  check "enough attempts to mean anything" true (n_few >= 1_000);
  (* Allow jitter in the retained window but nothing resembling
     linear-in-run-length growth. *)
  if words_many > words_few + (words_few / 10) + 4096 then
    Alcotest.failf
      "streaming checker grew with run length: %d words over %d attempts vs \
       %d words over %d attempts"
      words_many n_many words_few n_few

(* ------------------------------------------------------------------ *)
(* Retirement pin: which nodes retire, and when, is part of the       *)
(* contract.                                                           *)
(* ------------------------------------------------------------------ *)

(* Seeded 2 ms runs with the streaming checker on the sink. The live
   node high-water and the nodes still live at the horizon depend on
   exactly which graph nodes the sweep retires and at which event, so
   an equivalent rewrite of the sweep must reproduce both numbers.
   Each shape runs twice: with the default sweep interval and with a
   sweep after every event, where the high-water follows every single
   retirement. The elastic list's read-only attempts close unpinned,
   the path the other shapes barely take. The pins were recorded with
   the whole-table sweep. *)
let hashtable_body t ~duration_ns =
  let ht = Tm2c_apps.Hashtable.create t ~n_buckets:64 in
  Tm2c_apps.Hashtable.populate ht (Runtime.fork_prng t) ~n:256 ~key_range:512;
  Tm2c_apps.Workload.drive t ~duration_ns
    (Tm2c_harness.Exp.ht_mix ht ~updates:20 ~moves:0 ~payload:0 ~range:512)

let retirement_run ~gc_interval ~total body =
  let t = Runtime.create (Tm2c_harness.Exp.config ~total ~seed:1 ()) in
  let s = Stream.create ~gc_interval () in
  Stream.attach s (Runtime.trace t);
  let _ = body t ~duration_ns:2e6 in
  let v = Stream.finish s in
  check "run passes all checkers" true (Stream.passed v);
  (Stream.peak_nodes s, Stream.n_live_nodes s)

let test_retirement_pinned () =
  List.iter
    (fun (name, total, body, pins) ->
      List.iter
        (fun (gc_interval, peak, live) ->
          let p, l = retirement_run ~gc_interval ~total body in
          let name = Printf.sprintf "%s, sweep every %d" name gc_interval in
          check_int (name ^ ": peak live nodes") peak p;
          check_int (name ^ ": live nodes at the horizon") live l)
        pins)
    [
      ("counter/16", 16, counter_body, [ (1024, 8, 5); (1, 2, 2) ]);
      ("hashtable/16", 16, hashtable_body, [ (1024, 317, 317); (1, 317, 317) ]);
      ("hashtable/48", 48, hashtable_body, [ (1024, 602, 602); (1, 602, 602) ]);
      ("list-elastic/16", 16, list_body, [ (1024, 9, 3); (1, 2, 1) ]);
    ]

let suite =
  [
    Alcotest.test_case "mutation: stale-read window caught by opacity" `Quick
      test_mutation_stale_read_caught;
    Alcotest.test_case "mutation: fixed protocol replays clean" `Quick
      test_mutation_stale_read_fixed_protocol_clean;
    Alcotest.test_case "mutation: streaming checker agrees" `Quick
      test_mutation_streaming_agrees;
    Alcotest.test_case "synthetic inconsistent prefix caught" `Quick
      test_synthetic_inconsistent_prefix_caught;
    Alcotest.test_case "synthetic history: streaming agrees" `Quick
      test_synthetic_streaming_agrees;
    QCheck_alcotest.to_alcotest ~long:true differential_prop;
    Alcotest.test_case "streaming memory flat in run length" `Slow
      test_bounded_memory;
    Alcotest.test_case "retirement set pinned on seeded runs" `Quick
      test_retirement_pinned;
  ]
