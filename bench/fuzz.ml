(* Deterministic fault-injection fuzzer: sweep seeds x fault plans x
   the six @check workload shapes, replay every run's complete event
   history through the checker stack (serializability oracle, DS-Lock
   protocol, liveness), and — per shape x seed — require that the
   empty plan reproduces the no-fault run's committed/aborted counts
   exactly (the fault layer draws from its own PRNG stream, so merely
   enabling it must not perturb the schedule).

   On a checker failure the driver greedily shrinks the fault plan
   (dropping whole components, then zeroing individual rates) to a
   minimal still-failing (seed, plan) pair, prints it with a paste-able
   tm2c-sim repro command, and writes fuzz_repro.txt plus the checker
   witness to fuzz_witness.txt for CI artifact upload.

   --wedge runs the deliberately wedged configuration instead: crash a
   lock-holder under a requester-loses contention manager with leases
   disabled, and require that the liveness monitor *detects* the wedge
   (the run itself always terminates: the virtual horizon is hard) —
   then that leases alone un-wedge the same (seed, crash) pair.

   --failover is the server-side analogue: crash the DS-lock server
   owning the hot word. Without replication the run must wedge (zero
   commits, watchdog trips, wedged cores flagged); with --replicas 1
   the clients must fail over to the backup and finish with every
   checker green. --failover-smoke sweeps a mid-run server crash with
   replication over all six shapes for CI. *)

open Tm2c_core
open Tm2c_noc
open Tm2c_check

let timeout_ns = 60_000.0

let lease_ns = 250_000.0

type shape = {
  sh_name : string;
  sh_cores : int;
  sh_duration_ms : float;
  sh_policy : Cm.policy;
  sh_wmode : Tx.wmode;
  sh_flags : string;  (* extra tm2c-sim flags for the repro command *)
  sh_body : Runtime.t -> duration_ns:float -> Tm2c_apps.Workload.result;
}

(* The six @check shapes (bench/dune), at fuzz-friendly durations. *)
let shapes =
  let open Tm2c_apps in
  let counter t ~duration_ns =
    let c = Tm2c_memory.Alloc.alloc (Runtime.alloc t) ~words:1 in
    Workload.drive t ~duration_ns (fun _core ctx _prng () ->
        Tx.atomic ctx (fun () -> Tx.write ctx c (Tx.read ctx c + 1)))
  in
  let bank t ~duration_ns =
    let accounts = 1024 in
    let b = Bank.create t ~accounts ~initial:1000 in
    Workload.drive t ~duration_ns (fun _core ctx prng () ->
        if Tm2c_engine.Prng.int prng 100 < 20 then ignore (Bank.tx_balance ctx b)
        else
          let src = Tm2c_engine.Prng.int prng accounts
          and dst = Tm2c_engine.Prng.int prng accounts in
          Bank.tx_transfer ctx b ~src ~dst ~amount:1)
  in
  let hashtable t ~duration_ns =
    let size = 512 in
    let ht = Hashtable.create t ~n_buckets:64 in
    Hashtable.populate ht (Runtime.fork_prng t) ~n:size ~key_range:(2 * size);
    let r =
      Workload.drive t ~duration_ns (fun _core ctx prng () ->
          let k = Tm2c_engine.Prng.int prng (2 * size) in
          let p = Tm2c_engine.Prng.int prng 100 in
          if p < 20 then
            if p land 1 = 0 then ignore (Hashtable.tx_add ctx ht k)
            else ignore (Hashtable.tx_remove ctx ht k)
          else ignore (Hashtable.tx_contains ctx ht k))
    in
    Hashtable.check_invariants ht;
    r
  in
  let list_bench mode t ~duration_ns =
    let size = 64 in
    let l = Linkedlist.create t in
    Linkedlist.populate l (Runtime.fork_prng t) ~n:size ~key_range:(2 * size);
    let r =
      Workload.drive t ~duration_ns (fun _core ctx prng () ->
          let k = Tm2c_engine.Prng.int prng (2 * size) in
          let p = Tm2c_engine.Prng.int prng 100 in
          if p < 20 then
            if p land 1 = 0 then ignore (Linkedlist.tx_add ~mode ctx l k)
            else ignore (Linkedlist.tx_remove ~mode ctx l k)
          else ignore (Linkedlist.tx_contains ~mode ctx l k))
    in
    Linkedlist.check_invariants l;
    r
  in
  [
    {
      sh_name = "counter/16";
      sh_cores = 16;
      sh_duration_ms = 1.0;
      sh_policy = Cm.Fair_cm;
      sh_wmode = Tx.Lazy;
      sh_flags = "--bench counter --cores 16";
      sh_body = counter;
    };
    {
      sh_name = "bank/48";
      sh_cores = 48;
      sh_duration_ms = 1.0;
      sh_policy = Cm.Fair_cm;
      sh_wmode = Tx.Lazy;
      sh_flags = "--bench bank --cores 48";
      sh_body = bank;
    };
    {
      sh_name = "hashtable/16";
      sh_cores = 16;
      sh_duration_ms = 1.0;
      sh_policy = Cm.Fair_cm;
      sh_wmode = Tx.Lazy;
      sh_flags = "--bench hashtable --cores 16";
      sh_body = hashtable;
    };
    {
      sh_name = "hashtable/16-eager";
      sh_cores = 16;
      sh_duration_ms = 1.0;
      sh_policy = Cm.Fair_cm;
      sh_wmode = Tx.Eager;
      sh_flags = "--bench hashtable --cores 16 --eager";
      sh_body = hashtable;
    };
    {
      sh_name = "list/16";
      sh_cores = 16;
      sh_duration_ms = 2.0;
      sh_policy = Cm.Fair_cm;
      sh_wmode = Tx.Lazy;
      sh_flags = "--bench list --cores 16 --size 64";
      sh_body = list_bench `Normal;
    };
    {
      sh_name = "list/16-elastic-early";
      sh_cores = 16;
      sh_duration_ms = 2.0;
      sh_policy = Cm.Fair_cm;
      sh_wmode = Tx.Lazy;
      sh_flags = "--bench list --cores 16 --size 64 --elastic early";
      sh_body = list_bench `Elastic_early;
    };
  ]

(* Fault plans under test. Stall core 0 is always a DTM core
   (dedicated deployment places servers on the even ids); crash core 3
   is always an application core. *)
let plan_matrix ~smoke =
  let specs =
    if smoke then
      [
        "drop=0.01,dup=0.02";
        "delay=0.05@2000,reorder=0.1@3000";
        "drop=0.005,dup=0.01,delay=0.02@1500,stall=0@3e5+2e5,crash=3@5e5,part=1-4@1e5+2e5";
      ]
    else
      [
        "drop=0.01";
        "dup=0.02";
        "delay=0.05@2000";
        "reorder=0.1@3000";
        "part=1-4@1e5+2e5";
        "drop=0.01,dup=0.02,delay=0.05@2000";
        "stall=0@3e5+2e5";
        "crash=3@5e5";
        "drop=0.005,dup=0.01,delay=0.02@1500,reorder=0.05@2500,stall=0@3e5+2e5,crash=3@5e5,part=1-4@1e5+2e5";
      ]
  in
  List.map
    (fun s ->
      match Fault.of_spec s with
      | Ok p -> p
      | Error m -> failwith (Printf.sprintf "bad built-in plan %S: %s" s m))
    specs

let make_runtime sh ~seed =
  Runtime.create
    {
      Runtime.platform = Tm2c_noc.Platform.scc;
      total_cores = sh.sh_cores;
      service_cores = sh.sh_cores / 2;
      deployment = Runtime.Dedicated;
      policy = sh.sh_policy;
      wmode = sh.sh_wmode;
      batching = true;
      max_skew_ns = 3_000.0;
      seed;
      mem_words = 1 lsl 18;
    }

(* One run: returns the workload result and (when [collect]) the
   complete event history for checker replay. *)
let run_shape ?(replicas = 0) sh ~seed ~plan ~hardened ~collect =
  let t = make_runtime sh ~seed in
  (match plan with Some p -> Runtime.set_fault_plan t p | None -> ());
  if hardened then Runtime.set_hardening t ~timeout_ns ~lease_ns ();
  if replicas > 0 then Runtime.enable_replication t ~replicas;
  let col =
    if collect then begin
      let c = Collector.create () in
      Collector.attach c (Runtime.trace t);
      Some c
    end
    else None
  in
  let r = sh.sh_body t ~duration_ns:(sh.sh_duration_ms *. 1e6) in
  let events =
    match col with
    | Some c ->
        Collector.detach (Runtime.trace t);
        Collector.to_list c
    | None -> []
  in
  (r, events)

let repro_command ?(replicas = 0) sh ~seed ~plan =
  Printf.sprintf
    "tm2c-sim %s --duration %g --seed %d --fault-plan '%s' --timeout-ns %g \
     --lease-ns %g%s --check"
    sh.sh_flags sh.sh_duration_ms seed (Fault.to_spec plan) timeout_ns lease_ns
    (if replicas > 0 then Printf.sprintf " --replicas %d" replicas else "")

(* With replication on, a wedge is itself a failure: arm the liveness
   monitor's stuck detection (a core idle >1ms of virtual time made no
   progress across the failover it was promised). *)
let stuck_after_ns = 1e6

let failure_of_run ?(replicas = 0) sh ~seed ~plan =
  let _, events =
    run_shape ~replicas sh ~seed ~plan:(Some plan) ~hardened:true ~collect:true
  in
  let r =
    if replicas > 0 then Check.run_list ~stuck_after_ns events
    else Check.run_list events
  in
  if Check.passed r then None else Some r

(* Greedy plan shrinking: repeatedly try structural reductions (drop a
   whole component, then zero one link rate) and keep any that still
   fails, until no reduction does. *)
let shrink ?(replicas = 0) sh ~seed plan =
  let reductions p =
    let link f = { p with Fault.link = Option.map f p.Fault.link } in
    List.filter
      (fun q -> q <> p)
      ([
         { p with Fault.link = None };
         { p with Fault.stalls = [] };
         { p with Fault.crashes = [] };
         { p with Fault.scrashes = [] };
         { p with Fault.parts = [] };
         link (fun l -> { l with Fault.drop_pct = 0.0 });
         link (fun l -> { l with Fault.dup_pct = 0.0 });
         link (fun l -> { l with Fault.delay_pct = 0.0 });
         link (fun l -> { l with Fault.reorder_pct = 0.0 });
       ]
      @ List.map
          (fun s -> { p with Fault.stalls = List.filter (( <> ) s) p.Fault.stalls })
          p.Fault.stalls
      @ List.map
          (fun c ->
            { p with Fault.crashes = List.filter (( <> ) c) p.Fault.crashes })
          p.Fault.crashes
      @ List.map
          (fun c ->
            { p with Fault.scrashes = List.filter (( <> ) c) p.Fault.scrashes })
          p.Fault.scrashes
      @ List.map
          (fun c -> { p with Fault.parts = List.filter (( <> ) c) p.Fault.parts })
          p.Fault.parts)
  in
  let rec go p =
    match
      List.find_opt
        (fun q -> failure_of_run ~replicas sh ~seed ~plan:q <> None)
        (reductions p)
    with
    | Some q -> go q
    | None -> p
  in
  go plan

let write_file path s =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let report_failure ?(replicas = 0) sh ~seed ~plan ~out_dir result =
  let minimal = shrink ~replicas sh ~seed plan in
  let witness =
    match failure_of_run ~replicas sh ~seed ~plan:minimal with
    | Some r -> Check.report_string r
    | None -> Check.report_string result (* shrinking raced; keep the original *)
  in
  let cmd = repro_command ~replicas sh ~seed ~plan:minimal in
  Printf.printf "\nFUZZ FAILURE %s seed=%d\n" sh.sh_name seed;
  Printf.printf "  original plan: %s\n" (Fault.to_spec plan);
  Printf.printf "  minimal plan:  %s\n" (Fault.to_spec minimal);
  Printf.printf "  repro: %s\n%!" cmd;
  write_file
    (Filename.concat out_dir "fuzz_repro.txt")
    (Printf.sprintf "shape: %s\nseed: %d\nplan: %s\nrepro: %s\n" sh.sh_name seed
       (Fault.to_spec minimal) cmd);
  write_file (Filename.concat out_dir "fuzz_witness.txt") witness

(* Per shape x seed: the empty-plan determinism gate, then every plan
   in the matrix replayed through the checkers. Returns the failure
   count. *)
let fuzz_shape sh ~seeds ~plans ~out_dir =
  let failures = ref 0 in
  List.iter
    (fun seed ->
      (* Determinism gate: installing the empty plan (and hardening,
         which on a fault-free schedule only installs timeouts that
         never fire... timeouts do add heap events, so the comparison
         runs both sides unhardened) must not change the outcome. *)
      let base, _ =
        run_shape sh ~seed ~plan:None ~hardened:false ~collect:false
      in
      let empt, _ =
        run_shape sh ~seed ~plan:(Some Fault.empty) ~hardened:false
          ~collect:false
      in
      let open Tm2c_apps.Workload in
      if base.commits <> empt.commits || base.aborts <> empt.aborts then begin
        incr failures;
        Printf.printf
          "\nFUZZ FAILURE %s seed=%d: empty plan perturbed the schedule \
           (%d/%d commits/aborts vs %d/%d)\n%!"
          sh.sh_name seed empt.commits empt.aborts base.commits base.aborts;
        write_file
          (Filename.concat out_dir "fuzz_repro.txt")
          (Printf.sprintf "shape: %s\nseed: %d\nplan: none (determinism gate)\n"
             sh.sh_name seed)
      end;
      List.iter
        (fun plan ->
          match failure_of_run sh ~seed ~plan with
          | None ->
              Printf.printf "ok   %-24s seed=%d plan=%s\n%!" sh.sh_name seed
                (Fault.to_spec plan)
          | Some r ->
              incr failures;
              report_failure sh ~seed ~plan ~out_dir r)
        plans)
    seeds;
  !failures

(* The deliberately wedged configuration: counter under Backoff_retry
   (the requester always loses, so nobody ever revokes an orphan), a
   crash that strands a read lock on the shared counter, leases
   disabled. Detection = the run terminates (hard horizon) and the
   liveness monitor flags the survivors' unbounded abort chains.
   Sweep a few crash instants: the crash must land in the window where
   the victim holds its read lock (between grant and the commit-time
   status poll), and which poll window a given instant hits depends on
   the seed's schedule.

   The horizon and budget are matched to the exponential backoff: its
   delay caps at 1ms, so a wedged survivor accumulates ~2 aborts/ms
   once capped and a 20ms horizon pushes every survivor's chain well
   past 40. Backoff_retry starves one core even when healthy (single
   hot word, requester always loses — the unfairness FairCM exists to
   fix), so chain length alone cannot separate wedged from merely
   unfair: the wedge verdict combines zero global commits (nobody ever
   progressed) with the liveness violations, and the lease comparison
   requires commits plus a clean replay at the default budget. *)
let wedge_budget = 40

let wedge ~out_dir =
  let sh =
    {
      (List.hd shapes) with
      sh_name = "counter/16-backoff";
      sh_policy = Cm.Backoff_retry;
      sh_duration_ms = 20.0;
      sh_flags = "--bench counter --cores 16 --cm backoff";
    }
  in
  let seed = 1 in
  let crash_times = [ 1e5; 2e5; 3e5; 4e5; 5e5 ] in
  let attempt at =
    let plan =
      {
        Fault.empty with
        Fault.crashes = [ { Fault.crash_core = 3; crash_at_ns = at } ];
      }
    in
    let res, events =
      run_shape sh ~seed ~plan:(Some plan) ~hardened:false ~collect:true
    in
    let r = Check.run_list ~liveness_budget:wedge_budget events in
    (plan, res, r)
  in
  let wedged =
    List.find_map
      (fun at ->
        let plan, res, r = attempt at in
        if
          res.Tm2c_apps.Workload.commits = 0
          && (not (Liveness.ok r.Check.liveness))
          && Lockset.ok r.Check.lockset
        then Some (at, plan, r)
        else None)
      crash_times
  in
  match wedged with
  | None ->
      Printf.printf
        "WEDGE NOT DETECTED: no crash instant in the sweep wedged the run \
         (budget %d)\n"
        wedge_budget;
      1
  | Some (at, plan, r) ->
      Printf.printf
        "wedge detected: crash at %.0fns orphans the counter read lock; zero \
         commits, liveness FAIL as expected (budget %d), run terminated at \
         the %gms horizon\n"
        at wedge_budget sh.sh_duration_ms;
      Printf.printf "  minimal repro: seed=%d plan=%s\n" seed (Fault.to_spec plan);
      Printf.printf "  repro: tm2c-sim %s --duration %g --seed %d --fault-plan \
                     '%s' --check\n"
        sh.sh_flags sh.sh_duration_ms seed (Fault.to_spec plan);
      write_file
        (Filename.concat out_dir "fuzz_wedge.txt")
        (Check.report_string r);
      (* Leases alone must un-wedge the same (seed, crash) pair:
         commits resume, at least one reclamation fired, and the run
         replays clean at the default liveness budget (Backoff_retry's
         ordinary single-core starvation stays under it). *)
      let t = make_runtime sh ~seed in
      Runtime.set_fault_plan t plan;
      Runtime.set_hardening t ~lease_ns ();
      let col = Collector.create () in
      Collector.attach col (Runtime.trace t);
      let res = sh.sh_body t ~duration_ns:(sh.sh_duration_ms *. 1e6) in
      Collector.detach (Runtime.trace t);
      let reclaimed =
        (Fault.counters (Runtime.faults t)).Fault.leases_reclaimed
      in
      let r' = Check.run (Collector.iter col) in
      if Check.passed r' && res.Tm2c_apps.Workload.commits > 0 && reclaimed > 0
      then begin
        Printf.printf
          "lease reclamation (lease-ns %g) un-wedges the same pair: %d \
           commits, %d lease(s) reclaimed, all checkers pass\n"
          lease_ns res.Tm2c_apps.Workload.commits reclaimed;
        0
      end
      else begin
        Printf.printf "LEASES DID NOT UN-WEDGE (%d commits, %d reclaimed):\n%s\n"
          res.Tm2c_apps.Workload.commits reclaimed (Check.report_string r');
        1
      end

(* The server-failure demo. The counter workload funnels every lock
   request to the one DS server owning the counter word; crash it at
   t=0.

   Leg 1 (no replication): every client wedges in its resend loop —
   zero commits, the watchdog cuts the run short, and the liveness
   monitor names the stuck cores. Leg 2 (--replicas 1): the clients
   exhaust their resend patience, bump the partition's epoch, re-route
   to the backup, and the run finishes with every checker green. Leg 3
   crashes the same server mid-run, so the backup's replica is
   non-empty at failover and the merge path is exercised. *)
let failover ~out_dir =
  let sh =
    { (List.hd shapes) with sh_name = "counter/16-scrash"; sh_duration_ms = 5.0 }
  in
  let seed = 1 in
  (* The owning server: replay the allocator (same config, same seed ⇒
     the workload's counter lands on the same address). *)
  let owner =
    let t = make_runtime sh ~seed in
    let c = Tm2c_memory.Alloc.alloc (Runtime.alloc t) ~words:1 in
    let dtm = Runtime.dtm_cores t in
    dtm.(System.owner_hash c (Array.length dtm))
  in
  let plan_at at =
    {
      Fault.empty with
      Fault.scrashes = [ { Fault.scrash_core = owner; scrash_at_ns = at } ];
    }
  in
  let run ~at ~replicas ~watchdog =
    let t = make_runtime sh ~seed in
    Runtime.set_fault_plan t (plan_at at);
    Runtime.set_hardening t ~timeout_ns ~lease_ns ();
    if replicas > 0 then Runtime.enable_replication t ~replicas;
    if watchdog then Runtime.enable_watchdog t ~window_ns:1e6 ~stall_windows:2;
    let col = Collector.create () in
    Collector.attach col (Runtime.trace t);
    let res = sh.sh_body t ~duration_ns:(sh.sh_duration_ms *. 1e6) in
    Collector.detach (Runtime.trace t);
    (t, res, Check.run ~stuck_after_ns (Collector.iter col))
  in
  let counters t = Fault.counters (Runtime.faults t) in
  let fail fmt = Printf.ksprintf (fun m -> Printf.printf "FAILOVER DEMO FAILED: %s\n" m; 1) fmt in
  (* Leg 1: crash at t=0, no replication — the run must wedge. *)
  let t1, r1, c1 = run ~at:0.0 ~replicas:0 ~watchdog:true in
  write_file (Filename.concat out_dir "fuzz_failover_wedge.txt") (Check.report_string c1);
  if r1.Tm2c_apps.Workload.commits > 0 then
    fail "leg 1: %d commits despite the owning server dead from t=0"
      r1.Tm2c_apps.Workload.commits
  else if not (Runtime.wedged t1) then fail "leg 1: watchdog did not trip"
  else if c1.Check.liveness.Liveness.stuck = [] then
    fail "leg 1: liveness monitor flagged no stuck core"
  else begin
    Printf.printf
      "leg 1: server %d dead at t=0 without replication wedges the run — 0 \
       commits, watchdog tripped, %d cores flagged stuck\n"
      owner
      (List.length c1.Check.liveness.Liveness.stuck);
    (* Leg 2: same crash, one replica — the run must complete. *)
    let t2, r2, c2 = run ~at:0.0 ~replicas:1 ~watchdog:true in
    let f2 = counters t2 in
    if not (Check.passed c2) then begin
      write_file (Filename.concat out_dir "fuzz_failover_witness.txt")
        (Check.report_string c2);
      fail "leg 2: checkers failed with --replicas 1:\n%s" (Check.report_string c2)
    end
    else if r2.Tm2c_apps.Workload.commits = 0 then fail "leg 2: zero commits with --replicas 1"
    else if f2.Fault.failovers = 0 then fail "leg 2: no epoch bump recorded"
    else begin
      Printf.printf
        "leg 2: with --replicas 1 the clients fail over (epoch bumps %d) and \
         finish: %d commits, all checkers green\n"
        f2.Fault.failovers r2.Tm2c_apps.Workload.commits;
      (* Leg 3: mid-run crash — the replica is warm, the merge runs. *)
      let t3, r3, c3 = run ~at:1.5e6 ~replicas:1 ~watchdog:true in
      let f3 = counters t3 in
      if not (Check.passed c3) then begin
        write_file (Filename.concat out_dir "fuzz_failover_witness.txt")
          (Check.report_string c3);
        fail "leg 3: checkers failed after mid-run failover:\n%s"
          (Check.report_string c3)
      end
      else if f3.Fault.replicated = 0 then
        fail "leg 3: no mutation was ever replicated before the crash"
      else if f3.Fault.failovers = 0 then fail "leg 3: no epoch bump recorded"
      else if r3.Tm2c_apps.Workload.commits = 0 then fail "leg 3: zero commits"
      else begin
        Printf.printf
          "leg 3: mid-run crash at 1.5ms fails over a warm replica (%d \
           mutations shipped, %d stale rejections): %d commits, all checkers \
           green\n"
          f3.Fault.replicated f3.Fault.stale_rejections
          r3.Tm2c_apps.Workload.commits;
        Printf.printf "  repro: %s\n"
          (repro_command ~replicas:1 sh ~seed ~plan:(plan_at 1.5e6));
        0
      end
    end
  end

(* --streaming: the differential gate between the online
   bounded-memory checker and the batch oracle. Per shape x seed,
   replay a heavily faulted run's history through both and require
   structurally identical verdicts; also require the streaming
   checker's serialization-graph window to stay strictly under the
   attempt count (boundedness sanity — the asymptotic flat-memory
   test lives in the test suite). A second online checker sweeps
   after every event ([~gc_interval:1]), driving the sweep's work
   lists and the lock index at their highest churn; its verdict must
   match both. *)
let streaming_smoke ~seeds ~out_dir =
  let plan =
    match
      Fault.of_spec
        "drop=0.005,dup=0.01,delay=0.02@1500,stall=0@3e5+2e5,crash=3@5e5,part=1-4@1e5+2e5"
    with
    | Ok p -> p
    | Error m -> failwith (Printf.sprintf "bad built-in streaming plan: %s" m)
  in
  let failures = ref 0 in
  List.iter
    (fun sh ->
      List.iter
        (fun seed ->
          let _, events =
            run_shape sh ~seed ~plan:(Some plan) ~hardened:true ~collect:true
          in
          let s = Stream.create () and s1 = Stream.create ~gc_interval:1 () in
          List.iter
            (fun (now, ev) ->
              Stream.feed s now ev;
              Stream.feed s1 now ev)
            events;
          let online = Stream.finish s in
          let batch = Check.run_list events in
          let window = Stream.peak_nodes s in
          let batch_v = Stream.verdict_of_result batch in
          if
            not
              (Stream.equal online batch_v
              && Stream.equal (Stream.finish s1) batch_v)
          then begin
            incr failures;
            Printf.printf "\nSTREAMING MISMATCH %s seed=%d plan=%s\n%!"
              sh.sh_name seed (Fault.to_spec plan);
            write_file
              (Filename.concat out_dir "fuzz_streaming.txt")
              (Printf.sprintf
                 "shape: %s\nseed: %d\nplan: %s\n\n-- online --\n%s\n-- \
                  online, sweep per event --\n%s\n-- batch --\n%s"
                 sh.sh_name seed (Fault.to_spec plan) (Stream.report_string s)
                 (Stream.report_string s1) (Check.report_string batch))
          end
          else if online.Stream.d_attempts > 64 && window >= online.Stream.d_attempts
          then begin
            incr failures;
            Printf.printf
              "\nSTREAMING WINDOW UNBOUNDED %s seed=%d: %d live-node peak over \
               %d attempts\n%!"
              sh.sh_name seed window online.Stream.d_attempts
          end
          else
            Printf.printf
              "ok   %-24s seed=%d streaming==sweep-per-event==batch (%d \
               events, %d attempts, window %d)\n%!"
              sh.sh_name seed online.Stream.d_events online.Stream.d_attempts
              window)
        seeds)
    shapes;
  if !failures > 0 then begin
    Printf.printf "\n%d streaming failure(s); artifacts in %s\n" !failures
      out_dir;
    1
  end
  else begin
    Printf.printf
      "\nstreaming differential clean: %d shapes x %d seeds, verdicts \
       identical\n"
      (List.length shapes) (List.length seeds);
    0
  end

(* CI sweep: a mid-run DS-server crash with one replica over every
   shape; any checker failure (wedged cores included) shrinks and
   writes artifacts exactly like the ordinary matrix. Core 2 hosts a
   DS server in every shape (dedicated spreads servers on even ids). *)
let failover_smoke ~seeds ~out_dir =
  let plan =
    match Fault.of_spec "scrash=2@3e5" with
    | Ok p -> p
    | Error m -> failwith (Printf.sprintf "bad built-in failover plan: %s" m)
  in
  let failures = ref 0 in
  List.iter
    (fun sh ->
      List.iter
        (fun seed ->
          match failure_of_run ~replicas:1 sh ~seed ~plan with
          | None ->
              Printf.printf "ok   %-24s seed=%d replicas=1 plan=%s\n%!"
                sh.sh_name seed (Fault.to_spec plan)
          | Some r ->
              incr failures;
              report_failure ~replicas:1 sh ~seed ~plan ~out_dir r)
        seeds)
    shapes;
  if !failures > 0 then begin
    Printf.printf "\n%d failover failure(s); artifacts in %s\n" !failures out_dir;
    1
  end
  else begin
    Printf.printf "\nfailover clean: %d shapes x %d seeds, scrash plan %s\n"
      (List.length shapes) (List.length seeds) (Fault.to_spec plan);
    0
  end

let () =
  let seeds = ref 2 and smoke = ref false and do_wedge = ref false in
  let do_failover = ref false and do_failover_smoke = ref false in
  let do_streaming = ref false in
  let out_dir = ref "." in
  Arg.parse
    [
      ("--seeds", Arg.Set_int seeds, "N  seeds per shape (default 2)");
      ("--smoke", Arg.Set smoke, " reduced plan matrix for CI");
      ("--wedge", Arg.Set do_wedge, " run the wedged-configuration detection demo");
      ( "--failover",
        Arg.Set do_failover,
        " run the DS-server crash / replicated-failover demo" );
      ( "--failover-smoke",
        Arg.Set do_failover_smoke,
        " CI sweep: mid-run server crash with one replica, all shapes" );
      ( "--streaming",
        Arg.Set do_streaming,
        " differential gate: streaming checker verdict == batch oracle" );
      ("--out-dir", Arg.Set_string out_dir, "DIR  where failure artifacts go");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "fuzz [--seeds N] [--smoke] [--wedge] [--failover] [--failover-smoke] \
     [--streaming] [--out-dir DIR]";
  if !do_wedge then exit (wedge ~out_dir:!out_dir)
  else if !do_failover then exit (failover ~out_dir:!out_dir)
  else if !do_failover_smoke then
    exit
      (failover_smoke ~seeds:(List.init !seeds (fun i -> 41 + i))
         ~out_dir:!out_dir)
  else if !do_streaming then
    exit
      (streaming_smoke ~seeds:(List.init !seeds (fun i -> 41 + i))
         ~out_dir:!out_dir)
  else begin
    let plans = plan_matrix ~smoke:!smoke in
    let seed_list = List.init !seeds (fun i -> 41 + i) in
    let failures =
      List.fold_left
        (fun acc sh -> acc + fuzz_shape sh ~seeds:seed_list ~plans ~out_dir:!out_dir)
        0 shapes
    in
    if failures > 0 then begin
      Printf.printf "\n%d fuzz failure(s); artifacts in %s\n" failures !out_dir;
      exit 1
    end
    else Printf.printf "\nfuzz clean: %d shapes x %d seeds x %d plans\n"
        (List.length shapes) !seeds (List.length plans)
  end
