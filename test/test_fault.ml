(* Fault-injection and protocol-hardening tests: plan spec round-trip,
   the empty-plan bit-for-bit determinism guarantee, duplicate-request
   absorption, timeout/resend under drops and under timeouts shorter
   than the round trip, DS-server stall windows, and lease reclamation
   unblocking writers after a crash — asserted on outcome and on the
   emitted event sequence. *)

open Tm2c_core
open Tm2c_noc
open Tm2c_check

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let cfg ?(total = 16) ?(policy = Cm.Fair_cm) ?(seed = 42) () =
  {
    Runtime.platform = Platform.scc;
    total_cores = total;
    service_cores = total / 2;
    deployment = Runtime.Dedicated;
    policy;
    wmode = Tx.Lazy;
    batching = true;
    seed;
  }

(* Shared-counter window run (every app core increments one word),
   with the collector tapped in and the fault/hardening knobs
   exposed. Returns the runtime, the workload result, and the
   complete event history. *)
let run_counter ?plan ?(timeout_ns = 0.0) ?(lease_ns = 0.0)
    ?(policy = Cm.Fair_cm) ?(seed = 42) ?(duration_ms = 0.5) () =
  let t = Runtime.create (cfg ~policy ~seed ()) in
  (match plan with Some p -> Runtime.set_fault_plan t p | None -> ());
  if timeout_ns > 0.0 || lease_ns > 0.0 then
    Runtime.set_hardening t ~timeout_ns ~lease_ns ();
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

(* ---- plan spec ---- *)

let valid_specs =
  [
    "none";
    "drop=0.01";
    "dup=0.02";
    "delay=0.05@2000";
    "reorder=0.1@3000";
    "drop=0.01,dup=0.02,delay=0.05@2000";
    "stall=8@1e6+5e5";
    "crash=3@2e6";
    "scrash=4@3e5";
    "part=1-4@1e5+2e5";
    "drop=0.01,dup=0.02,delay=0.05@2000,stall=8@1e6+5e5,crash=3@2e6";
    "drop=0.005,reorder=0.1@3000,scrash=2@3e5,part=1-4@1e5+2e5";
  ]

let test_spec_roundtrip () =
  List.iter
    (fun s ->
      let p = plan_of_spec s in
      check ("round-trip " ^ s) true (Fault.of_spec (Fault.to_spec p) = Ok p))
    valid_specs;
  check "none is the empty plan" true (plan_of_spec "none" = Fault.empty);
  List.iter
    (fun s ->
      check ("rejected: " ^ s) true
        (match Fault.of_spec s with Error _ -> true | Ok _ -> false))
    [
      "bogus";
      "drop=x";
      "drop=0.01,";
      "stall=1";
      "crash=z@1e6";
      (* unknown key: must be refused, not silently ignored *)
      "warp=0.1";
      (* reorder needs its spike bound *)
      "reorder=0.1";
      "reorder=x@3000";
      (* scrash needs an instant and a valid core *)
      "scrash=1";
      "scrash=x@1e6";
      "scrash=2@z";
      (* partitions need both endpoints and a full window *)
      "part=1@1e5+2e5";
      "part=1-x@1e5+2e5";
      "part=1-4@1e5";
      "part=1-4";
    ]

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* Probabilities must lie in [0, 1] and times and durations be finite
   and non-negative: an infinite delay would kill the run at its first
   spike, and drop=2 would serve nothing. Each refusal names the
   offending component. *)
let test_spec_ranges () =
  List.iter
    (fun s ->
      match Fault.of_spec s with
      | Ok _ -> Alcotest.failf "accepted out-of-range spec %S" s
      | Error m -> check (Printf.sprintf "error for %S names it" s) true (contains m s))
    [
      "drop=2";
      "drop=-1";
      "drop=1e400";
      "dup=nan";
      "delay=0.5@inf";
      "delay=0.5@-3000";
      "delay=1.5@2000";
      "reorder=0.1@-1";
      "reorder=-0.1@3000";
      "stall=3@1e5+inf";
      "stall=3@-1+5e5";
      "stall=3@1e308+1e308";
      "crash=3@-1";
      "scrash=4@inf";
      "part=1-4@1e5+-2e5";
    ];
  List.iter
    (fun s -> check ("accepted " ^ s) true (Result.is_ok (Fault.of_spec s)))
    [ "drop=0"; "drop=1"; "dup=1"; "delay=1@0"; "stall=3@0+0"; "crash=0@0" ]

(* Every value of an accepted plan is in range. *)
let plan_in_range (p : Fault.plan) =
  let prob x = x >= 0.0 && x <= 1.0 in
  let time x = x >= 0.0 && x < Float.infinity in
  (match p.Fault.link with
  | None -> true
  | Some l ->
      prob l.Fault.drop_pct && prob l.Fault.dup_pct && prob l.Fault.delay_pct
      && time l.Fault.delay_ns && prob l.Fault.reorder_pct && time l.Fault.reorder_ns)
  && List.for_all
       (fun s -> time s.Fault.stall_from_ns && time s.Fault.stall_until_ns)
       p.Fault.stalls
  && List.for_all (fun c -> time c.Fault.crash_at_ns) p.Fault.crashes
  && List.for_all (fun c -> time c.Fault.scrash_at_ns) p.Fault.scrashes
  && List.for_all
       (fun w -> time w.Fault.part_from_ns && time w.Fault.part_until_ns)
       p.Fault.parts

(* Hostile input: a valid spec with a few characters replaced,
   inserted or deleted, drawn mostly from the spec alphabet. The parser
   is total: it returns [Error] or an in-range plan, and never raises. *)
let mutated_spec =
  let open QCheck.Gen in
  let hostile =
    oneof [ oneofl (List.of_seq (String.to_seq "0123456789.,-+=@eEinfa xp")); char ]
  in
  let mutate s =
    let n = String.length s in
    int_bound 2 >>= fun op ->
    int_bound (max 0 (n - 1)) >>= fun i ->
    hostile >|= fun c ->
    if n = 0 then String.make 1 c
    else
      match op with
      | 0 -> String.mapi (fun j x -> if j = i then c else x) s
      | 1 -> String.sub s 0 i ^ String.make 1 c ^ String.sub s i (n - i)
      | _ -> String.sub s 0 i ^ String.sub s (i + 1) (n - i - 1)
  in
  let rec times k s = if k = 0 then return s else mutate s >>= times (k - 1) in
  pair (oneofl valid_specs) (int_range 1 4) >>= fun (s, k) -> times k s

let spec_parser_total =
  QCheck.Test.make ~name:"mutated specs give Ok or Error, never raise" ~count:2000
    (QCheck.make mutated_spec ~print:(Printf.sprintf "%S"))
    (fun s ->
      match Fault.of_spec s with
      | Ok p -> plan_in_range p
      | Error _ -> true
      | exception e -> QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e))

(* ---- determinism ---- *)

(* The fault layer draws from its own [Prng.split_label] stream, so
   installing the *empty* plan must reproduce the no-fault run
   bit-for-bit: same counts and the same event stream, timestamps
   included (hardening off on both sides — its timeout bookkeeping
   adds heap events of its own). *)
let test_empty_plan_bit_for_bit () =
  let _, r0, ev0 = run_counter () in
  let _, r1, ev1 = run_counter ~plan:Fault.empty () in
  check_int "commits equal" r0.Tm2c_apps.Workload.commits
    r1.Tm2c_apps.Workload.commits;
  check_int "aborts equal" r0.Tm2c_apps.Workload.aborts
    r1.Tm2c_apps.Workload.aborts;
  check "event streams identical" true (ev0 = ev1)

(* ---- duplicate absorption ---- *)

let test_duplicate_absorption () =
  let t, r, events = run_counter ~plan:(plan_of_spec "dup=1.0") () in
  let c = Fault.counters (Runtime.faults t) in
  check "every message duplicated" true (c.Fault.duplicated > 0);
  check "server absorbed duplicate requests" true (c.Fault.absorbed > 0);
  check "progress despite duplicates" true (r.Tm2c_apps.Workload.commits > 0);
  check "Msg_duplicated events traced" true
    (List.exists
       (fun (_, ev) -> match ev with Event.Msg_duplicated _ -> true | _ -> false)
       events);
  let res = Check.run_list events in
  check "checkers pass under full duplication" true (Check.passed res)

(* Irrevocable transactions under duplication, racing normal
   transactions on one busy word: an [Exclusive_acquire] that finds
   its partition locked waits in the exclusive queue, and its
   duplicate arrives while it waits. The duplicate must be absorbed.
   Queued a second time, it would be granted after the release to an
   attempt that has already finished, and that partition would then
   refuse every lock. Only a duplicate of the release could clear
   that grant, so the plan duplicates half the messages, not all. *)
let test_duplicate_exclusive_acquire () =
  let t = Runtime.create (cfg ~total:8 ()) in
  Runtime.set_fault_plan t (plan_of_spec "dup=0.5");
  let counter = Tm2c_memory.Alloc.alloc (Runtime.alloc t) ~words:1 in
  let rounds = 20 in
  let incr ctx () = Tx.write ctx counter (Tx.read ctx counter + 1) in
  Runtime.start_services t;
  Array.iteri
    (fun idx core ->
      let ctx = Runtime.app_ctx t core in
      Runtime.spawn_app t core (fun () ->
          for _ = 1 to rounds do
            if idx = 0 then Tx.irrevocable ctx (incr ctx)
            else Tx.atomic ctx (incr ctx)
          done))
    (Runtime.app_cores t);
  let _ = Runtime.run t ~until:5e6 () in
  let c = Fault.counters (Runtime.faults t) in
  check "duplicates absorbed" true (c.Fault.absorbed > 0);
  check_int "every transaction committed"
    (rounds * Array.length (Runtime.app_cores t))
    (Tm2c_memory.Shmem.peek (Runtime.shmem t) counter)

(* ---- drops, timeouts, resends ---- *)

let test_drop_resend () =
  let t, r, events =
    run_counter ~plan:(plan_of_spec "drop=0.3") ~timeout_ns:30_000.0
      ~lease_ns:250_000.0 ()
  in
  let c = Fault.counters (Runtime.faults t) in
  check "messages dropped" true (c.Fault.dropped > 0);
  check "timeouts resent" true (c.Fault.resends > 0);
  check "progress despite drops" true (r.Tm2c_apps.Workload.commits > 0);
  let resent =
    List.filter_map
      (fun (_, ev) ->
        match ev with Event.Req_resent { nth; _ } -> Some nth | _ -> None)
      events
  in
  check "Req_resent events traced" true (resent <> []);
  check "nth counts from 1" true (List.mem 1 resent);
  let res = Check.run_list events in
  check "checkers pass under drops" true (Check.passed res)

(* Timeout shorter than the request round trip: every request is
   resent while the original reply is still in flight, so the
   late-original / resend races all happen — the server must absorb
   the duplicate requests and the requester the duplicate replies. *)
let test_timeout_below_rtt () =
  let t, r, events = run_counter ~timeout_ns:1_000.0 () in
  let c = Fault.counters (Runtime.faults t) in
  check "resends without any injected fault" true (c.Fault.resends > 0);
  check "duplicates absorbed at the server" true (c.Fault.absorbed > 0);
  check "progress despite the resend storm" true
    (r.Tm2c_apps.Workload.commits > 0);
  let res = Check.run_list events in
  check "checkers pass with timeout < RTT" true (Check.passed res)

(* ---- DS-server stall windows ---- *)

let test_stall_window () =
  (* Allocation is deterministic, so a probe run tells us which DS
     server homes the counter word — stall that one, or the window
     would go unnoticed. *)
  let owner =
    let t = Runtime.create (cfg ()) in
    let counter = Tm2c_memory.Alloc.alloc (Runtime.alloc t) ~words:1 in
    (Runtime.env t).System.owner_of counter
  in
  let t, r, events =
    run_counter
      ~plan:(plan_of_spec (Printf.sprintf "stall=%d@1e5+2e5" owner))
      ~timeout_ns:30_000.0 ~duration_ms:1.0 ()
  in
  let c = Fault.counters (Runtime.faults t) in
  check "stall provoked resends" true (c.Fault.resends > 0);
  check "progress after the stall" true (r.Tm2c_apps.Workload.commits > 0);
  let res = Check.run_list events in
  check "checkers pass across the stall" true (Check.passed res)

(* A resend that lands while the original still sits in the stalled
   server's mailbox must be absorbed exactly once the server wakes:
   the event sequence shows at most one [Service] per (server,
   requester, req_id), and at least one id that was resent during the
   stall is serviced exactly once — the duplicate is answered from
   cache or dropped, never re-executed. *)
let test_stall_resend_absorbed_once () =
  let owner =
    let t = Runtime.create (cfg ()) in
    let counter = Tm2c_memory.Alloc.alloc (Runtime.alloc t) ~words:1 in
    (Runtime.env t).System.owner_of counter
  in
  let t, r, events =
    run_counter
      ~plan:(plan_of_spec (Printf.sprintf "stall=%d@1e5+2e5" owner))
      ~timeout_ns:30_000.0 ~duration_ms:1.0 ()
  in
  let c = Fault.counters (Runtime.faults t) in
  check "the stall provoked resends" true (c.Fault.resends > 0);
  check "duplicates were absorbed" true (c.Fault.absorbed > 0);
  let served = Hashtbl.create 64 in
  List.iter
    (fun (_, ev) ->
      match ev with
      | Event.Service { server; requester; req_id; _ } when req_id > 0 ->
          let k = (server, requester, req_id) in
          Hashtbl.replace served k
            (1 + Option.value ~default:0 (Hashtbl.find_opt served k))
      | _ -> ())
    events;
  Hashtbl.iter
    (fun (server, requester, req_id) n ->
      if n > 1 then
        Alcotest.failf
          "request (server %d, requester %d, id %d) serviced %d times" server
          requester req_id n)
    served;
  let resent =
    List.filter_map
      (fun (_, ev) ->
        match ev with
        | Event.Req_resent { core; server; req_id; _ } ->
            Some (server, core, req_id)
        | _ -> None)
      events
  in
  check "some request was resent" true (resent <> []);
  check "a resent request was serviced exactly once" true
    (List.exists (fun k -> Hashtbl.find_opt served k = Some 1) resent);
  check "progress after the stall" true (r.Tm2c_apps.Workload.commits > 0);
  check "checkers pass" true (Check.passed (Check.run_list events))

(* ---- crash + lease reclamation ---- *)

(* Find a crash instant that lands while core 3 holds its read lock on
   the counter (between the grant and the commit-time status poll),
   wedging every writer under the requester-always-loses policy:
   with leases disabled the run makes no progress at all past the
   crash. Returns the wedging plan. *)
let find_wedge () =
  let rec go = function
    | [] -> Alcotest.fail "no crash instant in the sweep wedged the run"
    | at :: rest ->
        let spec = Printf.sprintf "crash=3@%g" at in
        let plan = plan_of_spec spec in
        let _, r, _ =
          run_counter ~plan ~policy:Cm.Backoff_retry ~seed:1 ~duration_ms:2.0 ()
        in
        if r.Tm2c_apps.Workload.commits = 0 then plan else go rest
  in
  go [ 1e5; 2e5; 3e5; 4e5; 5e5 ]

let test_crash_wedges_without_leases () =
  let plan = find_wedge () in
  let t, r, events =
    run_counter ~plan ~policy:Cm.Backoff_retry ~seed:1 ~duration_ms:2.0 ()
  in
  (* The run terminates (hard virtual horizon) with zero commits: the
     orphan read lock blocks every writer and no one may revoke it. *)
  check_int "no commits while wedged" 0 r.Tm2c_apps.Workload.commits;
  check "crash recorded" true (Fault.is_crashed (Runtime.faults t) ~core:3);
  check "Core_crashed traced for core 3" true
    (List.exists
       (fun (_, ev) ->
         match ev with Event.Core_crashed { core = 3; _ } -> true | _ -> false)
       events);
  (* The crashed core's open attempt is not a violation: it closes as
     Unfinished, exactly like run-horizon truncation. *)
  let res = Check.run_list events in
  check "no safety violation from the crash" true
    (Lockset.ok res.Check.witness.Stream.w_lockset
    && res.Check.history.History.anomalies = []);
  check "crashed core's attempt is Unfinished" true
    (List.exists
       (fun (a : History.attempt) ->
         a.History.a_core = 3 && a.History.a_outcome = History.Unfinished)
       res.Check.history.History.attempts)

let test_lease_reclaim_unblocks () =
  let plan = find_wedge () in
  let t, r, events =
    run_counter ~plan ~policy:Cm.Backoff_retry ~seed:1 ~duration_ms:2.0
      ~lease_ns:250_000.0 ()
  in
  let c = Fault.counters (Runtime.faults t) in
  check "writers unblocked" true (r.Tm2c_apps.Workload.commits > 0);
  check "a lease was reclaimed" true (c.Fault.leases_reclaimed > 0);
  (* Event sequence: the crash precedes the reclaim of its orphan, and
     the reclaim precedes the first commit after it. *)
  let idx p =
    let rec go i = function
      | [] -> None
      | (_, ev) :: rest -> if p ev then Some i else go (i + 1) rest
    in
    go 0 events
  in
  let crash_i =
    idx (function Event.Core_crashed { core = 3; _ } -> true | _ -> false)
  in
  let reclaim_i =
    idx (function Event.Lease_reclaimed { victim = 3; _ } -> true | _ -> false)
  in
  (match (crash_i, reclaim_i) with
  | Some ci, Some ri -> check "crash precedes reclaim" true (ci < ri)
  | _ -> Alcotest.fail "missing Core_crashed or Lease_reclaimed event");
  (match reclaim_i with
  | Some ri ->
      let commit_after =
        List.exists
          (fun (i, (_, ev)) ->
            i > ri && match ev with Event.Tx_committed _ -> true | _ -> false)
          (List.mapi (fun i e -> (i, e)) events)
      in
      check "a commit follows the reclaim" true commit_after
  | None -> ());
  let res = Check.run_list events in
  check "checkers pass with leases on" true (Check.passed res)

let suite =
  [
    ("fault: plan spec round-trip", `Quick, test_spec_roundtrip);
    ("fault: plan spec value ranges", `Quick, test_spec_ranges);
    ("qcheck: fault spec parser is total", `Quick, fun () ->
        QCheck.Test.check_exn spec_parser_total);
    ("fault: empty plan is bit-for-bit baseline", `Quick, test_empty_plan_bit_for_bit);
    ("fault: duplicate requests absorbed", `Quick, test_duplicate_absorption);
    ( "fault: duplicate exclusive acquire absorbed",
      `Quick,
      test_duplicate_exclusive_acquire );
    ("fault: drops recovered by resend", `Quick, test_drop_resend);
    ("fault: timeout below RTT races", `Quick, test_timeout_below_rtt);
    ("fault: DS-server stall window", `Quick, test_stall_window);
    ( "fault: resend after stall absorbed exactly once",
      `Quick,
      test_stall_resend_absorbed_once );
    ("fault: crash wedges without leases", `Quick, test_crash_wedges_without_leases);
    ("fault: lease reclaim unblocks writers", `Quick, test_lease_reclaim_unblocks);
  ]
