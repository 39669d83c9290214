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
     plans, plus the mutated (opacity-violating) run, hand-built
     histories (H1-H3: how initial versions bind; H4-H5: a serialized
     attempt's lifetime) and generated raw event streams.

   - Bounded memory: the streaming checker's reachable size after a
     run 10x longer must be flat — it retains the concurrency window,
     never the run. *)

open Tm2c_core
open Tm2c_check

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* Both drivers print one summary, and, unless a conflict cycle is
   reported, one whole report: both number serialized transactions in
   publish order, but each reports the cycle its own graph search
   finds, which can start at another hop or name other edges. [s] must
   be finished. *)
let same_report s batch =
  let v = batch.Check.verdict in
  Format.asprintf "%a" Stream.pp_verdict (Stream.finish s)
  = Format.asprintf "%a" Stream.pp_verdict v
  && (v.Stream.d_cycle <> None || Stream.report_string s = Check.report_string batch)

let cfg ?(total = 8) ?(service = 4) ?(seed = 42) () =
  {
    Runtime.platform = Tm2c_noc.Platform.scc;
    total_cores = total;
    service_cores = service;
    deployment = Runtime.Dedicated;
    policy = Cm.Fair_cm;
    wmode = Tx.Lazy;
    batching = true;
    seed;
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
  check "lock discipline is clean" true (Lockset.ok r.Check.witness.Stream.w_lockset);
  check "committed history stays serializable" true
    (r.Check.witness.Stream.w_cycle = None);
  check "no corruption" true (r.Check.witness.Stream.w_corruption = []);
  check "opacity oracle rejects the run" false (Check.passed r);
  match r.Check.witness.Stream.w_opacity with
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
    (r.Check.verdict.Stream.d_opacity_checked > 0)

(* The streaming checker must reach the same verdict on the mutated
   run, and its opacity witness must name the same address pair. *)
let test_mutation_streaming_agrees () =
  let a, b, events = run_stale_window ~skip:true in
  let s = Stream.create () in
  List.iter (fun (now, ev) -> Stream.feed s now ev) events;
  let online = Stream.finish s in
  let batch = Check.run_list events in
  check "streaming verdict = batch verdict" true
    (Stream.equal online batch.Check.verdict);
  check "streaming report = batch report" true (same_report s batch);
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

(* The same fracture seen by two readers that close in the reverse of
   their start order (core 2 starts first, aborts last). *)
let two_fractured_aborts =
  let a = 100 and b = 101 in
  [
    (0.5, Event.Host_write { addr = a; value = 0 });
    (0.6, Event.Host_write { addr = b; value = 0 });
    (1.0, Event.Tx_start { core = 0; attempt = 1; elastic = false });
    (1.5, Event.Tx_start { core = 2; attempt = 1; elastic = false });
    (2.0, Event.Tx_start { core = 1; attempt = 1; elastic = false });
    (3.0, Event.Tx_read { core = 1; addr = a; granted = true; value = 0 });
    (3.5, Event.Tx_read { core = 2; addr = a; granted = true; value = 0 });
    (4.0, Event.Tx_write { core = 0; addr = a; value = 1 });
    (5.0, Event.Tx_write { core = 0; addr = b; value = 1 });
    (6.0, Event.Tx_commit_begin { core = 0; attempt = 1; n_writes = 2 });
    ( 6.5,
      Event.Enemy_aborted
        { server = 3; winner = 0; victim = 1; addr = a; conflict = Types.War } );
    ( 6.6,
      Event.Enemy_aborted
        { server = 3; winner = 0; victim = 2; addr = a; conflict = Types.War } );
    (7.0, Event.Wlock_granted { core = 0; addrs = [ a; b ] });
    (8.0, Event.Tx_publish { core = 0; attempt = 1; n_writes = 2 });
    (9.0, Event.Tx_committed { core = 0; attempt = 1; duration_ns = 8.0 });
    (10.0, Event.Tx_read { core = 1; addr = b; granted = true; value = 1 });
    (10.5, Event.Tx_read { core = 2; addr = b; granted = true; value = 1 });
    (11.0, Event.Tx_aborted { core = 1; attempt = 1; conflict = None });
    (12.0, Event.Tx_aborted { core = 2; attempt = 1; conflict = None });
  ]

(* H1: two committed readers see values no one wrote over a host
   write; core 0 publishes first but commits last. Core 0's a=7 is the
   first read traced, so it binds the initial version and core 1's a=9
   is the corrupt read, in both drivers, although core 1 is judged
   first. *)
let h1_events =
  let a = 100 in
  [
    (0.5, Event.Host_write { addr = a; value = 0 });
    (1.0, Event.Tx_start { core = 0; attempt = 1; elastic = false });
    (2.0, Event.Tx_start { core = 1; attempt = 1; elastic = false });
    (3.0, Event.Tx_read { core = 0; addr = a; granted = true; value = 7 });
    (4.0, Event.Tx_read { core = 1; addr = a; granted = true; value = 9 });
    (5.0, Event.Tx_publish { core = 0; attempt = 1; n_writes = 0 });
    (6.0, Event.Tx_publish { core = 1; attempt = 1; n_writes = 0 });
    (7.0, Event.Tx_committed { core = 1; attempt = 1; duration_ns = 5.0 });
    (8.0, Event.Tx_committed { core = 0; attempt = 1; duration_ns = 7.0 });
  ]

(* H1 with a second read of core 0, which its first read's binding
   makes corrupt: two corrupt reads, core 1's judged first. *)
let two_corrupt_reads =
  List.concat_map
    (fun ((time, _) as e) ->
      if time = 4.0 then
        [ e; (4.5, Event.Tx_read { core = 0; addr = 100; granted = true; value = 8 }) ]
      else [ e ])
    h1_events

(* H2: the word was never written. Core 0's a=7 binds the initial
   version, so core 1, which aborts before core 0 commits, read a
   value no snapshot holds. *)
let h2_events =
  let a = 100 in
  [
    (1.0, Event.Tx_start { core = 0; attempt = 1; elastic = false });
    (2.0, Event.Tx_start { core = 1; attempt = 1; elastic = false });
    (3.0, Event.Tx_read { core = 0; addr = a; granted = true; value = 7 });
    (4.0, Event.Tx_read { core = 1; addr = a; granted = true; value = 9 });
    (5.0, Event.Tx_aborted { core = 1; attempt = 1; conflict = None });
    (6.0, Event.Tx_publish { core = 0; attempt = 1; n_writes = 0 });
    (7.0, Event.Tx_committed { core = 0; attempt = 1; duration_ns = 6.0 });
  ]

(* H3: one attempt reads two values of a never-written word, then
   aborts: its first read binds the initial version, so the second
   fits no snapshot. *)
let h3_events =
  let a = 100 in
  [
    (1.0, Event.Tx_start { core = 0; attempt = 1; elastic = false });
    (2.0, Event.Tx_read { core = 0; addr = a; granted = true; value = 7 });
    (3.0, Event.Tx_read { core = 0; addr = a; granted = true; value = 9 });
    (4.0, Event.Tx_aborted { core = 0; attempt = 1; conflict = None });
  ]

(* H4: a committed reader sees the host's a=0, then a=2 — the value
   core 0 commits later, or the initial state the host overwrote
   before the reader started. A read never observes a later version,
   so a=2 is the initial version; the graph has no node for the host
   write, so only the reader's lifetime rules it out. *)
let h4_events =
  let a = 100 in
  [
    (0.5, Event.Host_write { addr = a; value = 0 });
    (1.0, Event.Tx_start { core = 0; attempt = 1; elastic = false });
    (2.0, Event.Tx_start { core = 1; attempt = 1; elastic = false });
    (3.0, Event.Tx_read { core = 1; addr = a; granted = true; value = 0 });
    (4.0, Event.Tx_read { core = 1; addr = a; granted = true; value = 2 });
    (5.0, Event.Tx_publish { core = 1; attempt = 1; n_writes = 0 });
    (6.0, Event.Tx_committed { core = 1; attempt = 1; duration_ns = 4.0 });
    (7.0, Event.Tx_write { core = 0; addr = a; value = 2 });
    (8.0, Event.Tx_publish { core = 0; attempt = 1; n_writes = 1 });
    (9.0, Event.Tx_committed { core = 0; attempt = 1; duration_ns = 8.0 });
  ]

(* H5: a lost update over a host write. Core 0 reads the initial a=3,
   the host stores a=1, core 0 writes a=2 over it and commits: its
   write follows the host's version, which overwrote the one it
   read. *)
let h5_events =
  let a = 100 in
  [
    (1.0, Event.Tx_start { core = 0; attempt = 1; elastic = false });
    (2.0, Event.Tx_read { core = 0; addr = a; granted = true; value = 3 });
    (3.0, Event.Host_write { addr = a; value = 1 });
    (4.0, Event.Tx_write { core = 0; addr = a; value = 2 });
    (5.0, Event.Tx_publish { core = 0; attempt = 1; n_writes = 1 });
    (6.0, Event.Tx_committed { core = 0; attempt = 1; duration_ns = 5.0 });
  ]

(* After publish, core 0 writes again, publishes again and aborts,
   none of which the protocol allows: the history flags each, keeps
   the write set as published, and both drivers serialize the
   attempt, so core 1 reads its a=1 without fault. *)
let post_publish_events =
  let a = 100 in
  [
    (1.0, Event.Tx_start { core = 0; attempt = 1; elastic = false });
    (2.0, Event.Tx_write { core = 0; addr = a; value = 1 });
    (3.0, Event.Tx_publish { core = 0; attempt = 1; n_writes = 1 });
    (4.0, Event.Tx_write { core = 0; addr = a; value = 2 });
    (5.0, Event.Tx_publish { core = 0; attempt = 1; n_writes = 1 });
    (6.0, Event.Tx_aborted { core = 0; attempt = 1; conflict = None });
    (7.0, Event.Tx_start { core = 1; attempt = 1; elastic = false });
    (8.0, Event.Tx_read { core = 1; addr = a; granted = true; value = 1 });
    (9.0, Event.Tx_publish { core = 1; attempt = 1; n_writes = 0 });
    (10.0, Event.Tx_committed { core = 1; attempt = 1; duration_ns = 3.0 });
  ]

(* Every checker but the snapshot check is clean. *)
let fails_on_opacity_alone (v : Stream.verdict) =
  v.Stream.d_opacity <> []
  && v.Stream.d_anomalies = 0
  && v.Stream.d_corruption = []
  && v.Stream.d_cycle = None
  && v.Stream.d_lock_violations = 0
  && Liveness.ok v.Stream.d_liveness

let test_synthetic_inconsistent_prefix_caught () =
  let r = Check.run_list fractured_abort_events in
  check "serializable (the reader never committed)" true
    (r.Check.witness.Stream.w_cycle = None);
  check "opacity rejects" false (Check.passed r);
  (match r.Check.witness.Stream.w_opacity with
  | [ w ] ->
      check_int "read 1: the stale A" 100 w.Serial.ir_addr1;
      check_int "read 2: the fresh B" 101 w.Serial.ir_addr2;
      check_int "version pinning read 2 is the writer's publish" w.Serial.ir_pub2
        w.Serial.ir_pub2
  | ws -> Alcotest.failf "expected exactly one witness, got %d" (List.length ws));
  (* The snapshot check is the only oracle with jurisdiction over
     aborted reads: the history fails on it alone. *)
  check "fails on opacity alone" true (fails_on_opacity_alone r.Check.verdict)

let test_synthetic_streaming_agrees () =
  let s = Stream.create () in
  List.iter (fun (now, ev) -> Stream.feed s now ev) fractured_abort_events;
  let online = Stream.finish s in
  let batch = Check.run_list fractured_abort_events in
  check "streaming verdict = batch verdict" true
    (Stream.equal online batch.Check.verdict);
  check "streaming report = batch report" true (same_report s batch);
  check_int "one opacity witness" 1 (List.length online.Stream.d_opacity);
  (* Both reports list opacity witnesses in attempt start order,
     whatever order the attempts closed in. *)
  let s2 = Stream.create () in
  List.iter (fun (now, ev) -> Stream.feed s2 now ev) two_fractured_aborts;
  let batch2 = Check.run_list two_fractured_aborts in
  check_int "two opacity witnesses" 2 (List.length (Stream.finish s2).Stream.d_opacity);
  check "two witnesses: streaming verdict = batch verdict" true
    (Stream.equal (Stream.finish s2) batch2.Check.verdict);
  check "two witnesses: streaming report = batch report" true (same_report s2 batch2);
  (* ... and corrupt reads in publish order, whatever order the
     attempts committed in. *)
  let s3 = Stream.create () in
  List.iter (fun (now, ev) -> Stream.feed s3 now ev) two_corrupt_reads;
  let batch3 = Check.run_list two_corrupt_reads in
  check_int "two corrupt reads" 2 (List.length (Stream.finish s3).Stream.d_corruption);
  check "two corrupt reads: streaming report = batch report" true
    (same_report s3 batch3);
  (match batch3.Check.witness.Stream.w_corruption with
  | [ first; _ ] ->
      check "core 0, published first, is listed first" true
        (contains first "core 0 attempt 1 read addr=100 value=8")
  | l -> Alcotest.failf "expected two corrupt reads, got %d" (List.length l));
  check "streaming fails on opacity alone" true (fails_on_opacity_alone online)

(* CI replays test/fixtures/h1.hist through tm2c-check in both modes:
   it must stay H1, as the history-log writer renders it. *)
let fixture path = if Sys.file_exists path then path else Filename.concat "test" path

let test_h1_fixture () =
  check "fixtures/h1.hist holds H1" true
    (Histlog.load (fixture "fixtures/h1.hist") = (h1_events, None))

(* Both drivers bind an initial version at the first read traced that
   resolves to it, whatever order they judge attempts in: H1-H3 fail
   in both, with one report. *)
let test_initial_binding_agrees () =
  List.iter
    (fun (name, events, failure) ->
      let s = Stream.create () in
      List.iter (fun (now, ev) -> Stream.feed s now ev) events;
      let online = Stream.finish s in
      let batch = Check.run_list events in
      check (name ^ ": streaming verdict = batch verdict") true
        (Stream.equal online batch.Check.verdict);
      check (name ^ ": streaming report = batch report") true (same_report s batch);
      check (name ^ ": fails") false (Check.passed batch);
      let report = Check.report_string batch in
      if not (contains report failure) then
        Alcotest.failf "%s: report lacks %S:\n%s" name failure report)
    [
      ("H1", h1_events, "core 1 attempt 1 read addr=100 value=9 at seq 4");
      ("H2", h2_events, "core 1 attempt 1 (seqs 1..4) mixed two snapshots");
      ("H3", h3_events, "value=9 @seq 2 — the initial state");
    ]

(* A serialized attempt serializes at one instant of its lifetime,
   which the graph alone cannot see through host writes: H4 and H5
   fail in both drivers, with one report. *)
let test_serialized_lifetime_agrees () =
  List.iter
    (fun (name, events, failure) ->
      let s = Stream.create () in
      List.iter (fun (now, ev) -> Stream.feed s now ev) events;
      let online = Stream.finish s in
      let batch = Check.run_list events in
      check (name ^ ": streaming verdict = batch verdict") true
        (Stream.equal online batch.Check.verdict);
      check (name ^ ": streaming report = batch report") true (same_report s batch);
      check (name ^ ": no cycle") true (batch.Check.witness.Stream.w_cycle = None);
      check (name ^ ": fails") false (Check.passed batch);
      let report = Check.report_string batch in
      if not (contains report failure) then
        Alcotest.failf "%s: report lacks %S:\n%s" name failure report)
    [
      ( "H4",
        h4_events,
        "core 1 attempt 1 read addr=100 value=2 at seq 4: its version was \
         overwritten at seq 0, and the attempt serializes at seq 2 or later" );
      ( "H5",
        h5_events,
        "core 0 attempt 1 read addr=100 value=3 at seq 1: its version was \
         overwritten at seq 2, and the attempt serializes at seq 2 or later" );
    ]

let test_post_publish_anomalies_agree () =
  let s = Stream.create () in
  List.iter (fun (now, ev) -> Stream.feed s now ev) post_publish_events;
  let online = Stream.finish s in
  let batch = Check.run_list post_publish_events in
  check "streaming verdict = batch verdict" true (Stream.equal online batch.Check.verdict);
  check "streaming report = batch report" true (same_report s batch);
  check_int "write, publish and abort after publish flagged" 3 online.Stream.d_anomalies;
  (* Core 0 is serialized, so not snapshot-checked, and core 1's read
     of its a=1 is clean. *)
  check "the published write set stands" true
    (batch.Check.witness.Stream.w_corruption = []
    && batch.Check.verdict.Stream.d_opacity_checked = 0
    && batch.Check.verdict.Stream.d_reads_checked = 1)

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

(* Read-mostly hash table: most attempts are read-only, so their graph
   nodes are held only by RW awaits on buckets no one rewrites. *)
let hashtable_body t ~duration_ns =
  let ht = Tm2c_apps.Hashtable.create t ~n_buckets:64 in
  Tm2c_apps.Hashtable.populate ht (Runtime.fork_prng t) ~n:256 ~key_range:512;
  Tm2c_apps.Workload.drive t ~duration_ns
    (Tm2c_harness.Exp.ht_mix ht ~updates:20 ~moves:0 ~payload:0 ~range:512)

let shapes =
  [|
    ("counter", 0.5, counter_body);
    ("bank", 0.5, bank_body);
    ("list-elastic", 2.0, list_body);
  |]

let collect_shape ?duration_ms ~shape ~seed ~faults () =
  let _, default_ms, body = shapes.(shape) in
  let duration_ms = Option.value duration_ms ~default:default_ms in
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
      let events = collect_shape ~shape ~seed ~faults () in
      let s = Stream.create () in
      List.iter (fun (now, ev) -> Stream.feed s now ev) events;
      let online = Stream.finish s in
      let batch = Check.run_list events in
      if Stream.equal online batch.Check.verdict && same_report s batch then true
      else
        QCheck.Test.fail_reportf
          "verdicts or reports diverge on %s seed=%d faults=%b:@\n-- online --@\n%s@\n-- \
           batch --@\n%s"
          (let name, _, _ = shapes.(shape) in
           name)
          seed faults (Stream.report_string s) (Check.report_string batch))

(* ------------------------------------------------------------------ *)
(* Generated histories: raw event streams, no simulator in the loop.   *)
(* ------------------------------------------------------------------ *)

(* A raw history is a list of steps (core, kind, addr, value), each
   turned into one event by the state of its core: a core with no open
   attempt starts one (at most 6 in all) or stores as the host; a core
   inside one reads, writes, publishes, commits (published or not),
   aborts, crash-stops, stores as the host, or starts a new attempt
   over the open one (an anomaly). Values range over 0..3, so reads of
   never-written words clash often. A write, an abort or a second
   publish after publish is an anomaly the history flags. Attempts
   still open at the end are unfinished. *)
let raw_events (cores, addrs, steps) =
  let attempt = Array.make cores 0 and live = Array.make cores false in
  let crashed = Array.make cores false in
  let started = ref 0 and out = ref [] and n = ref 0 in
  let emit ev =
    out := (float_of_int !n, ev) :: !out;
    incr n
  in
  let start core =
    incr started;
    attempt.(core) <- attempt.(core) + 1;
    live.(core) <- true;
    emit (Event.Tx_start { core; attempt = attempt.(core); elastic = false })
  in
  List.iter
    (fun (c, kind, x, value) ->
      let core = c mod cores and addr = 100 + (x mod addrs) in
      let host () = emit (Event.Host_write { addr; value }) in
      let close ev =
        live.(core) <- false;
        emit ev
      in
      let attempt = attempt.(core) in
      if crashed.(core) then ()
      else if not live.(core) then if kind < 3 || !started >= 6 then host () else start core
      else
        match kind with
        | 0 | 1 | 2 -> emit (Event.Tx_read { core; addr; granted = true; value })
        | 3 -> emit (Event.Tx_write { core; addr; value })
        | 4 -> emit (Event.Tx_publish { core; attempt; n_writes = 0 })
        | 5 -> close (Event.Tx_committed { core; attempt; duration_ns = 1.0 })
        | 6 -> close (Event.Tx_aborted { core; attempt; conflict = None })
        | 7 ->
            crashed.(core) <- true;
            close (Event.Core_crashed { core; attempt })
        | 9 when !started < 6 -> start core
        | _ -> host ())
    steps;
  List.rev !out

let raw_history =
  QCheck.make
    ~print:(fun h ->
      String.concat "\n"
        (List.map (fun (_, ev) -> Event.to_string ev) (raw_events h)))
    ~shrink:(fun (cores, addrs, steps) ->
      QCheck.Iter.map (fun steps -> (cores, addrs, steps)) (QCheck.Shrink.list steps))
    QCheck.Gen.(
      triple (int_range 2 4) (int_range 1 3)
        (list_size (int_bound 40)
           (quad (int_bound 3) (int_bound 9) (int_bound 2) (int_bound 3))))

(* The binding rule as a property of its own: reads of an address no
   version was ever installed at (no host write, no serialized write)
   can only resolve to its initial version, so two of them seeing two
   values must fail the history, whichever attempts they belong to. *)
let clashing_initial_reads (h : History.t) =
  let written = Hashtbl.create 8 in
  List.iter (fun (_, addr, _) -> Hashtbl.replace written addr ()) h.History.host_writes;
  List.iter
    (fun (a : History.attempt) ->
      if Serial.serialized a then
        List.iter (fun (addr, _) -> Hashtbl.replace written addr ()) a.History.a_writes)
    h.History.attempts;
  let seen = Hashtbl.create 8 in
  List.exists
    (fun (a : History.attempt) ->
      List.exists
        (fun (r : History.read) ->
          (not (Hashtbl.mem written r.History.r_addr))
          &&
          match Hashtbl.find_opt seen r.History.r_addr with
          | Some v -> v <> r.History.r_value
          | None ->
              Hashtbl.replace seen r.History.r_addr r.History.r_value;
              false)
        a.History.a_reads)
    h.History.attempts

(* A driver's whole report with the conflict cycle aside: whether it
   reports one, but not which. The batch searches the finished graph
   from its lowest transaction, the stream reports the first cycle an
   edge closes, and on a graph with two cycles they can name different
   ones (of which transactions and addresses). *)
let cycle_aside (v : Stream.verdict) (w : Stream.witness) =
  let v = { v with Stream.d_cycle = Option.map (fun _ -> []) v.Stream.d_cycle } in
  (v, Stream.report v { w with Stream.w_cycle = None })

let generated_prop =
  QCheck.Test.make ~name:"streaming report = batch report on generated histories"
    ~count:1000 raw_history (fun h ->
      let events = raw_events h in
      let s = Stream.create () in
      List.iter (fun (now, ev) -> Stream.feed s now ev) events;
      let online = Stream.finish s in
      let batch = Check.run_list events in
      let ((_, online_report) as o) = cycle_aside online (Stream.witness s) in
      let ((_, batch_report) as b) = cycle_aside batch.Check.verdict batch.Check.witness in
      if o <> b then
        QCheck.Test.fail_reportf "reports diverge:@\n-- online --@\n%s@\n-- batch --@\n%s"
          online_report batch_report
      else if clashing_initial_reads batch.Check.history && Stream.passed online then
        QCheck.Test.fail_reportf "two values of a never-written word pass:@\n%s"
          online_report
      else true)

(* ------------------------------------------------------------------ *)
(* Hostile history logs: no driver raises.                             *)
(* ------------------------------------------------------------------ *)

(* [tm2c-check] replays a log from anywhere. Mutate the event lines of
   a real log (test/fixtures/h1.hist, or a short faulty bank run this
   test records), re-stamp the count footer so the reader gets past
   it, and replay: the reader may refuse the log only with its
   [Failure], and both drivers must reach a verdict and render a
   report whatever the lines say, raising nothing. *)
let read_lines path =
  In_channel.with_open_text path In_channel.input_all |> String.split_on_char '\n'

(* The event lines of a log, header and footer dropped. *)
let event_lines lines = List.filter (fun l -> l <> "" && l.[0] <> '#') lines

let hostile_bases =
  lazy
    [|
      event_lines (read_lines (fixture "fixtures/h1.hist"));
      Tmp.with_written ~suffix:".hist"
        (fun oc ->
          Histlog.write oc
            (Check.iter_of_list
               (collect_shape ~duration_ms:0.05 ~shape:1 ~seed:3 ~faults:true ())))
        (fun () path -> event_lines (read_lines path));
    |]

type mutation =
  | Field of int * int * int  (* line, field (0: the timestamp; the tag stays), value *)
  | Drop of int
  | Dup of int
  | Swap of int * int

let mutate lines m =
  let n = List.length lines in
  let at i = i mod max n 1 in
  match m with
  | Field (i, f, v) ->
      List.mapi
        (fun j line ->
          if j <> at i then line
          else
            match String.split_on_char ' ' line with
            | time :: tag :: fields ->
                let k = f mod (List.length fields + 1) in
                let put c x = if c = k then string_of_int v else x in
                String.concat " "
                  (put 0 time :: tag :: List.mapi (fun c x -> put (c + 1) x) fields)
            | _ -> line)
        lines
  | Drop i -> List.filteri (fun j _ -> j <> at i) lines
  | Dup i -> List.concat (List.mapi (fun j l -> if j = at i then [ l; l ] else [ l ]) lines)
  | Swap (i, k) ->
      let a = Array.of_list lines in
      if n > 0 then begin
        let x = a.(at i) in
        a.(at i) <- a.(at k);
        a.(at k) <- x
      end;
      Array.to_list a

let hostile_log =
  let open QCheck.Gen in
  let value = oneofl [ -1; -2; -1000; min_int; 0; max_int ] in
  let mutation =
    frequency
      [
        (4, map3 (fun i f v -> Field (i, f, v)) nat nat value);
        (1, map (fun i -> Drop i) nat);
        (1, map (fun i -> Dup i) nat);
        (1, map2 (fun i k -> Swap (i, k)) nat nat);
      ]
  in
  QCheck.make
    ~print:(fun (base, ms) ->
      String.concat "\n"
        (List.fold_left mutate (Lazy.force hostile_bases).(base) ms))
    (pair (int_bound 1) (list_size (int_range 1 6) mutation))

let hostile_prop =
  QCheck.Test.make ~name:"hostile history logs: both drivers reach a verdict" ~count:500
    hostile_log (fun (base, ms) ->
      let lines = List.fold_left mutate (Lazy.force hostile_bases).(base) ms in
      Tmp.with_written ~suffix:".hist"
        (fun oc ->
          output_string oc (Histlog.header ^ "\n");
          List.iter (fun l -> output_string oc (l ^ "\n")) lines;
          Printf.fprintf oc "# events %d\n" (List.length lines))
        (fun () path ->
          match Histlog.load path with
          | exception Failure _ -> true
          | events, stuck_after_ns ->
              List.iter
                (fun gc_interval ->
                  let s = Stream.create ~gc_interval () in
                  List.iter (fun (now, ev) -> Stream.feed s now ev) events;
                  let v = Stream.finish ?stuck_after_ns s in
                  ignore (Stream.report v (Stream.witness s)))
                [ 1024; 1 ];
              ignore (Check.report_string (Check.run_list ?stuck_after_ns events));
              true))

(* ------------------------------------------------------------------ *)
(* Liveness: one monitor, one report, one witness.                     *)
(* ------------------------------------------------------------------ *)

(* Both drivers feed the same online monitor, so the whole liveness
   report — every chain with its span, every wedged attempt with its
   idle time — must match, not only the counts. Returns the streaming
   checker and its verdict. *)
let liveness_agrees name ~budget ?stuck_after_ns events =
  let s = Stream.create ~liveness_budget:budget () in
  List.iter (fun (now, ev) -> Stream.feed s now ev) events;
  let online = Stream.finish ?stuck_after_ns s in
  let batch = Check.run_list ~liveness_budget:budget ?stuck_after_ns events in
  check (name ^ ": streaming liveness report = batch report") true
    (online.Stream.d_liveness = batch.Check.witness.Stream.w_liveness);
  check (name ^ ": streaming verdict = batch verdict") true
    (Stream.equal online batch.Check.verdict);
  check (name ^ ": streaming report = batch report") true (same_report s batch);
  (s, online)

(* A budget of 2 on the contended counter turns its abort runs into
   violations: the streaming witness names each chain's core, length
   and first attempt. *)
let test_liveness_chains_named () =
  let events = collect_shape ~shape:0 ~seed:1 ~faults:false () in
  let s, v = liveness_agrees "counter, budget 2" ~budget:2 events in
  let report = Stream.report_string s in
  match v.Stream.d_liveness.Liveness.violations with
  | [] -> Alcotest.fail "expected abort chains of length 2 or more"
  | chains ->
      check "liveness section" true (contains report "== liveness violations ==");
      List.iter
        (fun (ch : Liveness.chain) ->
          let line =
            Printf.sprintf "core %d aborted %d consecutive attempts (from attempt %d,"
              ch.Liveness.ch_core ch.Liveness.ch_len ch.Liveness.ch_first_attempt
          in
          if not (contains report line) then
            Alcotest.failf "report lacks %S:\n%s" line report)
        chains

(* Core 0 hangs in attempt 7 after one read, core 1 crash-stops inside
   an attempt, core 2 keeps committing to 3 ms. Armed at 1 ms, the
   monitor flags core 0 only (a crash is not a wedge), idle since its
   read. *)
let wedge_events =
  [
    (10.0, Event.Tx_start { core = 0; attempt = 7; elastic = false });
    (20.0, Event.Tx_read { core = 0; addr = 5; granted = true; value = 0 });
    (30.0, Event.Tx_start { core = 1; attempt = 1; elastic = false });
    (40.0, Event.Core_crashed { core = 1; attempt = 1 });
  ]
  @ List.concat
      (List.init 3 (fun i ->
           let t = 1e6 *. float_of_int (i + 1) in
           [
             (t, Event.Tx_start { core = 2; attempt = i + 1; elastic = false });
             (t +. 5.0, Event.Tx_committed { core = 2; attempt = i + 1; duration_ns = 5.0 });
           ]))

let test_liveness_wedge_named () =
  let s, v =
    liveness_agrees "synthetic wedge" ~budget:Liveness.default_budget
      ~stuck_after_ns:Liveness.default_stuck_after_ns wedge_events
  in
  check_int "one wedged core" 1 (List.length v.Stream.d_liveness.Liveness.stuck);
  let report = Stream.report_string s in
  let line = "core 0: attempt 7 open since 10ns, no progress for 2999985ns" in
  if not (contains report line) then Alcotest.failf "report lacks %S:\n%s" line report

(* ------------------------------------------------------------------ *)
(* Bounded memory: window-sized, not run-sized.                        *)
(* ------------------------------------------------------------------ *)

(* Same workload, 10x the attempts: the streaming checker's reachable
   size right after the last event (GC'd window, chains, address
   residues — everything it would carry into a longer run) must stay
   flat. The batch oracle's history grows linearly by construction;
   this is the claim that separates the two. The write-heavy counter
   retires its nodes by unpinning; the read-mostly hash table holds
   most of its nodes by RW awaits on buckets no one rewrites, and only
   the closed-source exit frees them. *)
let test_bounded_memory () =
  List.iter
    (fun (name, config, few_ms, body) ->
      let run duration_ms =
        let t = Runtime.create config in
        let s = Stream.create () in
        Stream.attach s (Runtime.trace t);
        let _ = body t ~duration_ns:(duration_ms *. 1e6) in
        let words = Obj.reachable_words (Obj.repr s) in
        let v = Stream.finish s in
        check (name ^ ": run passes all checkers") true (Stream.passed v);
        (v.Stream.d_attempts, words)
      in
      let n_few, words_few = run few_ms in
      let n_many, words_many = run (10.0 *. few_ms) in
      check (name ^ ": attempt counts differ by an order of magnitude") true
        (n_many >= 8 * n_few);
      check (name ^ ": enough attempts to mean anything") true (n_few >= 1_000);
      (* Allow jitter in the retained window but nothing resembling
         linear-in-run-length growth. *)
      if words_many > words_few + (words_few / 10) + 4096 then
        Alcotest.failf
          "%s: streaming checker grew with run length: %d words over %d \
           attempts vs %d words over %d attempts"
          name words_many n_many words_few n_few)
    [
      ("counter/8", cfg ~seed:7 (), 50.0, counter_body);
      ( "hashtable/16",
        Tm2c_harness.Exp.config ~total:16 ~seed:7 (),
        10.0,
        hashtable_body );
    ]

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
   the path the other shapes barely take. On the hash table the
   read-only attempts and the last writers retire as closed sources
   past the watermark. *)
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
      ("counter/16", 16, counter_body, [ (1024, 7, 4); (1, 1, 1) ]);
      ("hashtable/16", 16, hashtable_body, [ (1024, 47, 45); (1, 20, 7) ]);
      ("hashtable/48", 48, hashtable_body, [ (1024, 88, 56); (1, 63, 39) ]);
      ("list-elastic/16", 16, list_body, [ (1024, 9, 3); (1, 2, 0) ]);
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
    Alcotest.test_case "initial versions bind in read order (H1-H3)" `Quick
      test_initial_binding_agrees;
    Alcotest.test_case "H1 history-log fixture" `Quick test_h1_fixture;
    Alcotest.test_case "serialized attempts fit their lifetime (H4-H5)" `Quick
      test_serialized_lifetime_agrees;
    Alcotest.test_case "anomalies after publish: one report" `Quick
      test_post_publish_anomalies_agree;
    QCheck_alcotest.to_alcotest ~long:true differential_prop;
    QCheck_alcotest.to_alcotest generated_prop;
    QCheck_alcotest.to_alcotest hostile_prop;
    Alcotest.test_case "liveness: abort chains named, report = batch" `Quick
      test_liveness_chains_named;
    Alcotest.test_case "liveness: wedged core named, report = batch" `Quick
      test_liveness_wedge_named;
    Alcotest.test_case "streaming memory flat in run length" `Slow
      test_bounded_memory;
    Alcotest.test_case "retirement set pinned on seeded runs" `Quick
      test_retirement_pinned;
  ]
