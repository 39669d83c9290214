(* Replicated lock service and epoch-based failover: a DS-server crash
   wedges the run without replicas (and the liveness monitor names the
   stuck cores), one replica restores progress through an epoch bump,
   a mid-run crash exercises the replica merge, a stalled-then-healed
   zombie primary is fenced by stale-epoch rejection, the lockset
   checker's epoch-boundary rule is proven by mutation, and the
   server-side response cache stays bounded under duplicate storms. *)

open Tm2c_core
open Tm2c_noc
open Tm2c_check

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let timeout_ns = 60_000.0
let lease_ns = 250_000.0
let stuck_after_ns = Liveness.default_stuck_after_ns

let cfg ?(total = 16) ?(seed = 1) () =
  {
    Runtime.platform = Platform.scc;
    total_cores = total;
    service_cores = total / 2;
    deployment = Runtime.Dedicated;
    policy = Cm.Fair_cm;
    wmode = Tx.Lazy;
    batching = true;
    seed;
  }

(* The DS server owning the counter word: allocation is deterministic,
   so a probe runtime with the same config and seed finds the same
   partition the workload below will hammer. *)
let owner_server () =
  let t = Runtime.create (cfg ()) in
  let counter = Tm2c_memory.Alloc.alloc (Runtime.alloc t) ~words:1 in
  let dtm = Runtime.dtm_cores t in
  dtm.(System.owner_hash counter (Array.length dtm))

(* Shared-counter window run with hardening on (failover needs the
   timeout/resend machinery to detect a dead primary), optional
   replication and watchdog, and the collector tapped in. *)
let run_counter ?plan ?(replicas = 0) ?(watchdog = false) ?(seed = 1)
    ?(duration_ms = 5.0) () =
  let t = Runtime.create (cfg ~seed ()) in
  (match plan with Some p -> Runtime.set_fault_plan t p | None -> ());
  Runtime.set_hardening t ~timeout_ns ~lease_ns ();
  if replicas > 0 then Runtime.enable_replication t ~replicas;
  if watchdog then Runtime.enable_watchdog t ~window_ns:1e6 ~stall_windows:2;
  let col = Collector.create () in
  Collector.attach col (Runtime.trace t);
  let counter = Tm2c_memory.Alloc.alloc (Runtime.alloc t) ~words:1 in
  let r =
    Tm2c_apps.Workload.drive t ~duration_ns:(duration_ms *. 1e6)
      (fun _core ctx _prng () ->
        Tx.atomic ctx (fun () -> Tx.write ctx counter (Tx.read ctx counter + 1)))
  in
  Collector.detach (Runtime.trace t);
  (t, r, Collector.to_list col)

let plan_of_spec s =
  match Fault.of_spec s with
  | Ok p -> p
  | Error m -> Alcotest.failf "of_spec %S: %s" s m

let scrash_plan ~core ~at =
  { Fault.empty with Fault.scrashes = [ { Fault.scrash_core = core; scrash_at_ns = at } ] }

let idx p events =
  let rec go i = function
    | [] -> None
    | (_, ev) :: rest -> if p ev then Some i else go (i + 1) rest
  in
  go 0 events

(* ---- crash without replicas: wedge, watchdog, stuck verdict ---- *)

let test_scrash_wedges_without_replicas () =
  let owner = owner_server () in
  let t, r, events =
    run_counter ~plan:(scrash_plan ~core:owner ~at:0.0) ~watchdog:true ()
  in
  check_int "no commits with the owning server dead from t=0" 0
    r.Tm2c_apps.Workload.commits;
  check "watchdog cut the run short" true (Runtime.wedged t);
  let c = Fault.counters (Runtime.faults t) in
  check_int "one server crash injected" 1 c.Fault.server_crashes;
  check "Server_crashed traced" true
    (List.exists
       (fun (_, ev) ->
         match ev with
         | Event.Server_crashed { server } -> server = owner
         | _ -> false)
       events);
  (* The liveness monitor's stuck detection names the wedged cores. *)
  let res = Check.run_list ~stuck_after_ns events in
  check "stuck cores flagged" true (res.Check.liveness.Liveness.stuck <> []);
  check "a wedge is a liveness failure" true (Check.n_failures res > 0);
  (* ... but only when armed: without [stuck_after_ns] the truncated
     attempts read as ordinary horizon cut-off. *)
  let res' = Check.run_list events in
  check "safety checkers stay green on the wedged run" true
    (Lockset.ok res'.Check.lockset && res'.Check.liveness.Liveness.stuck = [])

(* The streaming checker, as tm2c-sim --check runs it, reports the
   same wedge as the batch monitor and names each wedged attempt with
   its idle time. *)
let test_scrash_wedge_named_by_stream () =
  let owner = owner_server () in
  let _, _, events =
    run_counter ~plan:(scrash_plan ~core:owner ~at:0.0) ~watchdog:true ()
  in
  let s = Stream.create () in
  List.iter (fun (now, ev) -> Stream.feed s now ev) events;
  let v = Stream.finish ~stuck_after_ns s in
  let batch = Check.run_list ~stuck_after_ns events in
  check "streaming liveness report = batch report" true
    (v.Stream.d_liveness = batch.Check.liveness);
  let report = Stream.report_string s in
  match v.Stream.d_liveness.Liveness.stuck with
  | [] -> Alcotest.fail "expected wedged cores"
  | stuck ->
      List.iter
        (fun (st : Liveness.stuck) ->
          let line =
            Printf.sprintf "core %d: attempt %d open since %.0fns, no progress for %.0fns"
              st.Liveness.st_core st.Liveness.st_attempt st.Liveness.st_since_ns
              st.Liveness.st_idle_ns
          in
          if not (contains report line) then Alcotest.failf "report lacks %S:\n%s" line report)
        stuck

(* The same wedge end to end: tm2c-sim records the threshold it armed
   in the history log, and tm2c-check replays the log to the same
   failure (exit 1, the eight wedged cores) in both modes, with one
   report. *)
let test_wedged_log_replays_failing () =
  let exe name =
    Filename.concat (Filename.dirname Sys.executable_name)
      (Filename.concat Filename.parent_dir_name (Filename.concat "bin" name))
  in
  Tmp.with_path ~suffix:".hist" (fun hist ->
      let sim =
        Filename.quote_command (exe "tm2c_sim.exe") ~stdout:Filename.null
          [ "--bench"; "counter"; "--cores"; "16"; "--duration"; "5";
            "--fault-plan"; "scrash=14@0"; "--timeout-ns"; "60000";
            "--lease-ns"; "250000"; "--watchdog-ms"; "1"; "--check";
            "--history"; hist ]
      in
      check_int "tm2c-sim --check fails the wedged run" 1 (Sys.command sim);
      let replay streaming =
        Tmp.with_path ~suffix:".out" (fun out ->
            let cmd =
              Filename.quote_command (exe "tm2c_check_cli.exe") ~stdout:out
                [ "--streaming=" ^ string_of_bool streaming; hist ]
            in
            check_int
              (Printf.sprintf "tm2c-check --streaming=%b exits 1" streaming)
              1 (Sys.command cmd);
            In_channel.with_open_bin out In_channel.input_all)
      in
      let streamed = replay true and batch = replay false in
      if not (contains streamed ", 8 stuck") then
        Alcotest.failf "replay lacks the 8 wedged cores:\n%s" streamed;
      Alcotest.(check string) "both modes print one report" streamed batch)

(* ---- crash with one replica: epoch bump, failover, progress ---- *)

let test_failover_restores_progress () =
  let owner = owner_server () in
  let t, r, events =
    run_counter ~plan:(scrash_plan ~core:owner ~at:0.0) ~replicas:1
      ~watchdog:true ()
  in
  check "progress restored with one replica" true
    (r.Tm2c_apps.Workload.commits > 0);
  check "not wedged" false (Runtime.wedged t);
  let c = Fault.counters (Runtime.faults t) in
  check "an epoch bump was recorded" true (c.Fault.failovers > 0);
  (* Event sequence: the bump precedes the backup's promotion, which
     precedes some commit. *)
  let bump_i =
    idx (function Event.Epoch_bumped _ -> true | _ -> false) events
  in
  let done_i =
    idx (function Event.Failover_done _ -> true | _ -> false) events
  in
  (match (bump_i, done_i) with
  | Some b, Some d -> check "bump precedes promotion" true (b < d)
  | _ -> Alcotest.fail "missing Epoch_bumped or Failover_done event");
  (match done_i with
  | Some d ->
      check "a commit follows the promotion" true
        (List.exists
           (fun (i, (_, ev)) ->
             i > d && match ev with Event.Tx_committed _ -> true | _ -> false)
           (List.mapi (fun i e -> (i, e)) events))
  | None -> ());
  let res = Check.run_list ~stuck_after_ns events in
  check "all checkers green across the failover" true (Check.passed res)

(* ---- mid-run crash: the replica is warm, the merge runs ---- *)

let test_midrun_failover_merges_replica () =
  let owner = owner_server () in
  let t, r, events =
    run_counter ~plan:(scrash_plan ~core:owner ~at:1.5e6) ~replicas:1
      ~watchdog:true ()
  in
  let c = Fault.counters (Runtime.faults t) in
  check "mutations were replicated before the crash" true
    (c.Fault.replicated > 0);
  check "Replica_applied traced" true
    (List.exists
       (fun (_, ev) ->
         match ev with Event.Replica_applied _ -> true | _ -> false)
       events);
  check "an epoch bump was recorded" true (c.Fault.failovers > 0);
  check "progress across the mid-run failover" true
    (r.Tm2c_apps.Workload.commits > 0);
  let res = Check.run_list ~stuck_after_ns events in
  check "all checkers green" true (Check.passed res)

(* ---- zombie fencing: a healed primary is refused by epoch ---- *)

(* Stall (not crash) the owner long enough that clients bump the epoch
   and fail over; when the stall heals, the zombie primary drains its
   queued requests and must refuse every one of them — each refusal is
   a [Stale_epoch_rejected], never a grant. *)
let test_zombie_stale_epoch_rejected () =
  let owner = owner_server () in
  let t, r, events =
    run_counter
      ~plan:(plan_of_spec (Printf.sprintf "stall=%d@1e5+1.5e6" owner))
      ~replicas:1 ~watchdog:true ()
  in
  let c = Fault.counters (Runtime.faults t) in
  check "clients failed over during the stall" true (c.Fault.failovers > 0);
  check "the healed zombie rejected stale requests" true
    (c.Fault.stale_rejections > 0);
  check "Stale_epoch_rejected traced" true
    (List.exists
       (fun (_, ev) ->
         match ev with
         | Event.Stale_epoch_rejected { server; _ } -> server = owner
         | _ -> false)
       events);
  check "progress" true (r.Tm2c_apps.Workload.commits > 0);
  let res = Check.run_list ~stuck_after_ns events in
  check "no conflicting grant escaped the fence" true (Check.passed res)

(* ---- lockset mutation: stale-epoch double grant rejected ---- *)

(* A broken epoch check would let a zombie primary grant a write lock
   that conflicts with one the new owner granted after the bump.
   Simulate the aftermath: in a clean stream, right after a write
   grant, bump the epoch and have an enemy core receive a conflicting
   grant — the holder's lock predates the bump and was never revoked,
   so the checker must produce the epoch-boundary witness. *)
let test_mutation_stale_epoch_grant_caught () =
  let _, _, events = run_counter () in
  check "unmutated stream is clean" true (Lockset.ok (Lockset.analyze (Check.iter_of_list events)));
  let injected = ref false in
  let mutated =
    List.concat_map
      (fun (time, ev) ->
        match ev with
        | Event.Wlock_granted { core; addrs } when addrs <> [] && not !injected
          ->
            injected := true;
            let enemy = if core = 1 then 3 else 1 in
            [
              (time, ev);
              (time, Event.Epoch_bumped { part = 0; epoch = 1; by = enemy });
              (time, Event.Wlock_granted { core = enemy; addrs });
            ]
        | _ -> [ (time, ev) ])
      events
  in
  check "mutation applied" true !injected;
  let r = Lockset.analyze (Check.iter_of_list mutated) in
  check "stale-epoch grant rejected" false (Lockset.ok r);
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    m = 0 || go 0
  in
  check "witness names the epoch boundary" true
    (List.exists
       (fun v -> contains v.Lockset.v_message "epoch")
       r.Lockset.violations)

(* ---- bounded response cache ---- *)

(* Under a duplicate storm the absorption cache fills with one entry
   per live requester; a requester that dies leaves an entry that can
   never be refreshed, and the sweep must reap it within one idle
   window. The cache therefore stays bounded by the app-core count no
   matter how long the run is. *)
let test_response_cache_bounded () =
  let n_app = Array.length (Runtime.app_cores (Runtime.create (cfg ()))) in
  let run duration_ms =
    let t, r, events =
      run_counter ~plan:(plan_of_spec "dup=0.5,crash=3@5e5") ~duration_ms ()
    in
    let size =
      List.fold_left
        (fun acc s -> max acc (Dtm.resp_cache_size s))
        0 (Runtime.servers t)
    in
    (t, r, events, size)
  in
  let t, r, events, size_long = run 8.0 in
  let _, _, _, size_short = run 2.0 in
  let c = Fault.counters (Runtime.faults t) in
  check "duplicates absorbed" true (c.Fault.absorbed > 0);
  check "the dead requester's entry was evicted" true (c.Fault.cache_evicted > 0);
  check "cache bounded by app-core count (long run)" true (size_long <= n_app);
  check "cache does not grow with run length" true (size_long <= size_short + 1);
  check "progress" true (r.Tm2c_apps.Workload.commits > 0);
  check "checkers pass" true (Check.passed (Check.run_list events))

let suite =
  [
    ( "failover: server crash wedges without replicas",
      `Quick,
      test_scrash_wedges_without_replicas );
    ( "failover: streaming report names the wedged cores",
      `Quick,
      test_scrash_wedge_named_by_stream );
    ( "failover: a replayed wedged log fails in both modes",
      `Quick,
      test_wedged_log_replays_failing );
    ( "failover: one replica restores progress",
      `Quick,
      test_failover_restores_progress );
    ( "failover: mid-run crash merges the warm replica",
      `Quick,
      test_midrun_failover_merges_replica );
    ( "failover: healed zombie fenced by stale epoch",
      `Quick,
      test_zombie_stale_epoch_rejected );
    ( "failover: mutation: stale-epoch double grant caught",
      `Quick,
      test_mutation_stale_epoch_grant_caught );
    ("failover: response cache stays bounded", `Quick, test_response_cache_bounded);
  ]
