(* Deterministic fault-injection fuzzer: sweep seeds x fault plans x
   the six fault-free @check workload shapes, replay every run's
   complete event history through the checker stack (serializability
   oracle, DS-Lock protocol, liveness), and — per shape x seed —
   require that the empty plan reproduces the no-fault run's
   committed/aborted counts exactly (the fault layer draws from its own
   PRNG stream, so merely enabling it must not perturb the schedule).

   Every shape is a tm2c-sim run description ({!Tm2c_harness.Shape}),
   so a failing run is printed as the tm2c-sim command that repeats it.
   On a checker failure the driver greedily shrinks the fault plan
   (dropping whole components, then zeroing individual rates) to a
   minimal still-failing (seed, plan) pair, prints it with that repro
   command, and writes fuzz_repro.txt plus the checker witness to
   fuzz_witness.txt for CI artifact upload.

   --wedge runs the deliberately wedged configuration instead: crash a
   lock-holder under a requester-loses contention manager with leases
   disabled, and require that the liveness monitor *detects* the wedge
   (the run itself always terminates: the virtual horizon is hard) —
   then that leases alone un-wedge the same (seed, crash) pair.

   --failover-smoke sweeps a mid-run DS-server crash with one replica
   over all six shapes: the clients must fail over to the backup and
   every checker must stay green. (The crash of the owning server
   with and without replication is tested in test/test_failover.ml.) *)

open Tm2c_core
open Tm2c_noc
open Tm2c_check
module Shape = Tm2c_harness.Shape

let timeout_ns = 60_000.0

let lease_ns = 250_000.0

(* The six fault-free @check shapes (bench/dune; the seventh, a lossy
   bank, carries its own fault plan), at fuzz-friendly durations. *)
let shapes =
  let s = Shape.default in
  [
    ("counter/16", { s with bench = Counter; cores = 16; duration_ms = 1.0 });
    ("bank/48", { s with bench = Bank; cores = 48; duration_ms = 1.0 });
    ("hashtable/16", { s with bench = Hashtable; cores = 16; duration_ms = 1.0 });
    ( "hashtable/16-eager",
      { s with bench = Hashtable; cores = 16; duration_ms = 1.0; eager = true } );
    ("list/16", { s with bench = List_bench; cores = 16; size = 64; duration_ms = 2.0 });
    ( "list/16-elastic-early",
      {
        s with
        bench = List_bench;
        cores = 16;
        size = 64;
        duration_ms = 2.0;
        elastic = `Elastic_early;
      } );
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

let with_plan spec plan = { spec with Shape.fault_plan = Some plan }

(* The timeouts and leases every faulted run needs to make progress. *)
let hardened spec = { spec with Shape.timeout_ns; lease_ns }

(* One run: the workload result alone. *)
let outcome spec = fst (Shape.run spec (Shape.runtime spec))

(* One run with its complete event history collected for checker
   replay. *)
let run_collect spec =
  let t = Shape.runtime spec in
  let col = Collector.create () in
  Collector.attach col (Runtime.trace t);
  let r, _ = Shape.run spec t in
  Collector.detach (Runtime.trace t);
  (t, r, Collector.to_list col)

(* Single-quote any word a shell would not take as it is. *)
let shell_word w =
  let plain = function
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '.' | '_' -> true
    | _ -> false
  in
  if String.for_all plain w then w else "'" ^ w ^ "'"

let repro_command spec =
  "tm2c-sim " ^ String.concat " " (List.map shell_word (Shape.args spec)) ^ " --check"

(* With replication on, a wedge is itself a failure: arm the liveness
   monitor's stuck detection at the threshold tm2c-sim arms, so the
   repro judges the same way (a core idle >1ms of virtual time made no
   progress across the failover it was promised). *)
let failure_of_run spec =
  let _, _, events = run_collect spec in
  let r =
    if spec.Shape.replicas > 0 then
      Check.run_list ~stuck_after_ns:Liveness.default_stuck_after_ns events
    else Check.run_list events
  in
  if Check.passed r then None else Some r

(* Greedy plan shrinking: repeatedly try structural reductions (drop a
   whole component, then zero one link rate) and keep any that still
   fails, until no reduction does. *)
let shrink spec plan =
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
        (fun q -> failure_of_run (with_plan spec q) <> None)
        (reductions p)
    with
    | Some q -> go q
    | None -> p
  in
  go plan

let write_file path s =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

(* [spec] carries every knob of the failing run but its plan. *)
let report_failure name spec ~plan ~out_dir result =
  let minimal = shrink spec plan in
  let witness =
    match failure_of_run (with_plan spec minimal) with
    | Some r -> Check.report_string r
    | None -> Check.report_string result (* shrinking raced; keep the original *)
  in
  let cmd = repro_command (with_plan spec minimal) in
  let seed = spec.Shape.seed in
  Printf.printf "\nFUZZ FAILURE %s seed=%d\n" name seed;
  Printf.printf "  original plan: %s\n" (Fault.to_spec plan);
  Printf.printf "  minimal plan:  %s\n" (Fault.to_spec minimal);
  Printf.printf "  repro: %s\n%!" cmd;
  write_file
    (Filename.concat out_dir "fuzz_repro.txt")
    (Printf.sprintf "shape: %s\nseed: %d\nplan: %s\nrepro: %s\n" name seed
       (Fault.to_spec minimal) cmd);
  write_file (Filename.concat out_dir "fuzz_witness.txt") witness

(* Per shape x seed: the empty-plan determinism gate, then every plan
   in the matrix replayed through the checkers. Returns the failure
   count. *)
let fuzz_shape (name, spec) ~seeds ~plans ~out_dir =
  let failures = ref 0 in
  List.iter
    (fun seed ->
      let spec = { spec with Shape.seed } in
      (* Determinism gate: installing the empty plan must not change
         the outcome. Hardening installs timeouts, which add heap events
         even on a fault-free schedule, so both sides run unhardened. *)
      let base = outcome spec and empt = outcome (with_plan spec Fault.empty) in
      let open Tm2c_apps.Workload in
      if base.commits <> empt.commits || base.aborts <> empt.aborts then begin
        incr failures;
        Printf.printf
          "\nFUZZ FAILURE %s seed=%d: empty plan perturbed the schedule \
           (%d/%d commits/aborts vs %d/%d)\n%!"
          name seed empt.commits empt.aborts base.commits base.aborts;
        write_file
          (Filename.concat out_dir "fuzz_repro.txt")
          (Printf.sprintf "shape: %s\nseed: %d\nplan: none (determinism gate)\n"
             name seed)
      end;
      List.iter
        (fun plan ->
          match failure_of_run (with_plan (hardened spec) plan) with
          | None ->
              Printf.printf "ok   %-24s seed=%d plan=%s\n%!" name seed
                (Fault.to_spec plan)
          | Some r ->
              incr failures;
              report_failure name (hardened spec) ~plan ~out_dir r)
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
  let spec =
    { (snd (List.hd shapes)) with Shape.cm = Cm.Backoff_retry; duration_ms = 20.0; seed = 1 }
  in
  let crash_times = [ 1e5; 2e5; 3e5; 4e5; 5e5 ] in
  let attempt at =
    let plan =
      {
        Fault.empty with
        Fault.crashes = [ { Fault.crash_core = 3; crash_at_ns = at } ];
      }
    in
    let _, res, events = run_collect (with_plan spec plan) in
    let r = Check.run_list ~liveness_budget:wedge_budget events in
    (plan, res, r)
  in
  let wedged =
    List.find_map
      (fun at ->
        let plan, res, r = attempt at in
        if
          res.Tm2c_apps.Workload.commits = 0
          && (not (Liveness.ok r.Check.witness.Stream.w_liveness))
          && Lockset.ok r.Check.witness.Stream.w_lockset
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
        at wedge_budget spec.Shape.duration_ms;
      Printf.printf "  minimal repro: seed=%d plan=%s\n" spec.Shape.seed
        (Fault.to_spec plan);
      Printf.printf "  repro: %s\n" (repro_command (with_plan spec plan));
      write_file
        (Filename.concat out_dir "fuzz_wedge.txt")
        (Check.report_string r);
      (* Leases alone must un-wedge the same (seed, crash) pair:
         commits resume, at least one reclamation fired, and the run
         replays clean at the default liveness budget (Backoff_retry's
         ordinary single-core starvation stays under it). *)
      let t, res, events = run_collect { (with_plan spec plan) with Shape.lease_ns } in
      let reclaimed = (Fault.counters (Runtime.faults t)).Fault.leases_reclaimed in
      let r' = Check.run_list events in
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
    (fun (name, spec) ->
      List.iter
        (fun seed ->
          let _, _, events = run_collect (with_plan (hardened { spec with Shape.seed }) plan) in
          let s = Stream.create () and s1 = Stream.create ~gc_interval:1 () in
          List.iter
            (fun (now, ev) ->
              Stream.feed s now ev;
              Stream.feed s1 now ev)
            events;
          let online = Stream.finish s in
          let batch = Check.run_list events in
          let window = Stream.peak_nodes s in
          let batch_v = batch.Check.verdict in
          if
            not
              (Stream.equal online batch_v
              && Stream.equal (Stream.finish s1) batch_v)
          then begin
            incr failures;
            Printf.printf "\nSTREAMING MISMATCH %s seed=%d plan=%s\n%!"
              name seed (Fault.to_spec plan);
            write_file
              (Filename.concat out_dir "fuzz_streaming.txt")
              (Printf.sprintf
                 "shape: %s\nseed: %d\nplan: %s\n\n-- online --\n%s\n-- \
                  online, sweep per event --\n%s\n-- batch --\n%s"
                 name seed (Fault.to_spec plan) (Stream.report_string s)
                 (Stream.report_string s1) (Check.report_string batch))
          end
          else if online.Stream.d_attempts > 64 && window >= online.Stream.d_attempts
          then begin
            incr failures;
            Printf.printf
              "\nSTREAMING WINDOW UNBOUNDED %s seed=%d: %d live-node peak over \
               %d attempts\n%!"
              name seed window online.Stream.d_attempts
          end
          else
            Printf.printf
              "ok   %-24s seed=%d streaming==sweep-per-event==batch (%d \
               events, %d attempts, window %d)\n%!"
              name seed online.Stream.d_events online.Stream.d_attempts
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
    (fun (name, spec) ->
      List.iter
        (fun seed ->
          let spec = { (hardened spec) with Shape.seed; replicas = 1 } in
          match failure_of_run (with_plan spec plan) with
          | None ->
              Printf.printf "ok   %-24s seed=%d replicas=1 plan=%s\n%!"
                name seed (Fault.to_spec plan)
          | Some r ->
              incr failures;
              report_failure name spec ~plan ~out_dir r)
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
  let do_failover_smoke = ref false in
  let do_streaming = ref false in
  let out_dir = ref "." in
  Arg.parse
    [
      ("--seeds", Arg.Set_int seeds, "N  seeds per shape (default 2)");
      ("--smoke", Arg.Set smoke, " reduced plan matrix for CI");
      ("--wedge", Arg.Set do_wedge, " run the wedged-configuration detection demo");
      ( "--failover-smoke",
        Arg.Set do_failover_smoke,
        " CI sweep: mid-run server crash with one replica, all shapes" );
      ( "--streaming",
        Arg.Set do_streaming,
        " differential gate: streaming checker verdict == batch oracle" );
      ("--out-dir", Arg.Set_string out_dir, "DIR  where failure artifacts go");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "fuzz [--seeds N] [--smoke] [--wedge] [--failover-smoke] \
     [--streaming] [--out-dir DIR]";
  if !do_wedge then exit (wedge ~out_dir:!out_dir)
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
