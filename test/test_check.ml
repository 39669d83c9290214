(* Checker-stack tests: a clean workload must replay clean through
   all three checkers, the history log must round-trip exactly, the
   contention-manager decision events must agree with the observed
   outcomes, and — the teeth — a seeded window-edge serializability
   bug (non-atomic write-back, the class fixed in PR 1) must be
   caught by the oracle with a cycle witness. *)

open Tm2c_core
open Tm2c_check

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

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

(* A contended counter run with the collector tapped in: every core
   increments one shared word, so the trace carries plenty of
   arbitrations, enemy aborts, and status-CAS aborts. *)
let collect_counter ?(per_core = 50) () =
  let c = cfg () in
  let t = Runtime.create c in
  let col = Collector.create () in
  Collector.attach col (Runtime.trace t);
  let counter = Tm2c_memory.Alloc.alloc (Runtime.alloc t) ~words:1 in
  Runtime.start_services t;
  Array.iter
    (fun core ->
      let ctx = Runtime.app_ctx t core in
      Runtime.spawn_app t core (fun () ->
          for _ = 1 to per_core do
            Tx.atomic ctx (fun () ->
                Tx.write ctx counter (Tx.read ctx counter + 1));
            Runtime.poll_service t ~core
          done))
    (Runtime.app_cores t);
  let _ = Runtime.run t ~until:1e12 () in
  Collector.detach (Runtime.trace t);
  Collector.to_list col

let test_clean_run_passes () =
  let events = collect_counter () in
  let r = Check.run_list events in
  check "clean counter run passes all checkers" true (Check.passed r);
  check_int "no failures" 0 (Check.n_failures r);
  check "some transactions checked" true
    (r.Check.verdict.Stream.d_committed > 0 && r.Check.verdict.Stream.d_reads_checked > 0);
  check "some grants replayed" true (r.Check.witness.Stream.w_lockset.Lockset.n_grants > 0)

let test_histlog_roundtrip () =
  let events = collect_counter ~per_core:10 () in
  check "trace nonempty" true (events <> []);
  Tmp.with_path ~suffix:".log" (fun path ->
      Histlog.save path (Check.iter_of_list events);
      let loaded, stuck_after_ns = Histlog.load path in
      check_int "same event count" (List.length events) (List.length loaded);
      (* Hex-float timestamps make the round-trip exact, so plain
         structural equality must hold. *)
      check "events round-trip exactly" true (events = loaded);
      check "an unarmed log declares no wedge threshold" true (stuck_after_ns = None));
  (* A run that armed wedge detection records the threshold beside the
     footer; the events read back unchanged. *)
  Tmp.with_path ~suffix:".log" (fun path ->
      let w = Histlog.create_writer path in
      List.iter (fun (time, ev) -> Histlog.put w time ev) events;
      Histlog.close_writer ~stuck_after_ns:Liveness.default_stuck_after_ns w;
      check "armed log round-trips" true
        (Histlog.load path = (events, Some Liveness.default_stuck_after_ns)))

(* A log must start with the v5 header (older versions are no longer
   read), and every malformed line fails with its line number:
   non-finite numbers, unknown labels, wrong arity. *)
let test_histlog_rejects_garbage () =
  let load_fails contents =
    Tmp.with_written ~suffix:".log"
      (fun oc -> output_string oc contents)
      (fun () path ->
        match Histlog.load path with _ -> None | exception Failure msg -> Some msg)
  in
  List.iter
    (fun h ->
      check ("header rejected: " ^ h) true (load_fails (h ^ "\n") <> None))
    [ "# not a history log"; "# tm2c-history v4"; "# tm2c-history v1" ];
  List.iter
    (fun line ->
      match load_fails (Histlog.header ^ "\n0x0p+0 BAR 1\n" ^ line ^ "\n") with
      | Some msg ->
          check ("line number reported: " ^ line) true (contains msg "line 3")
      | None -> Alcotest.failf "accepted bad line %S" line)
    [
      "nan BAR 1";
      "inf BAR 1";
      "-inf BAR 1";
      "0x1p+0 COM 1 2 nan";
      "0x1p+0 COM 1 2 inf";
      "0x1p+0 SHD 1 0 QUEUE -inf";
      "0x1p+0 SHD 1 0 SOMETIMES 0x0p+0";
      "0x1p+0 EXP 1 0 nan";
      "0x1p+0 ABO 1 2 RAR";
      "0x1p+0 CFL 0 1 2 3 XYZ 1";
      "0x1p+0 ENA 0 1 2 3 status";
      "0x1p+0 TXS 1 2 yes";
      "0x1p+0 TXS 1 2";
      "0x1p+0 WLK 1 2,x";
      "0x1p+0 ZZZ 1";
      "# stuck-after-ns nan";
      "# stuck-after-ns soon";
    ]

(* One decision event per CM arbitration: a server resolves at most
   one request per virtual instant, so two identical [Lock_conflict]
   payloads at the same timestamp would mean a double emission. *)
let test_one_decision_per_arbitration () =
  let events = collect_counter () in
  let seen = Hashtbl.create 256 in
  let n = ref 0 in
  List.iter
    (fun (time, ev) ->
      match ev with
      | Event.Lock_conflict _ ->
          incr n;
          check "no duplicate decision event" false (Hashtbl.mem seen (time, ev));
          Hashtbl.add seen (time, ev) ()
      | _ -> ())
    events;
  check "arbitrations observed" true (!n > 0)

(* [requester_wins] agreement, winning direction: every enemy-abort
   CAS is preceded by a decision at the same server/requester/address
   that went the winner's way. *)
let test_enemy_abort_follows_winning_decision () =
  let events = Array.of_list (collect_counter ()) in
  let n_ena = ref 0 in
  Array.iteri
    (fun i (_, ev) ->
      match ev with
      | Event.Enemy_aborted { server; winner; addr; _ } ->
          incr n_ena;
          let rec back j =
            if j < 0 then
              Alcotest.failf
                "no Lock_conflict precedes the Enemy_aborted at seq %d" i
            else
              match snd events.(j) with
              | Event.Lock_conflict
                  { server = s; requester; addr = a; requester_wins; _ }
                when s = server && requester = winner && a = addr ->
                  check "decision preceding the CAS was a win" true
                    requester_wins
              | _ -> back (j - 1)
          in
          back (i - 1)
      | _ -> ())
    events;
  check "enemy aborts observed" true (!n_ena > 0)

(* [requester_wins] agreement, losing direction: a requester that
   loses an arbitration receives a Conflicted reply, so the attempt
   it was running must end in [Tx_aborted] — never [Tx_committed]. *)
let test_losing_requester_aborts () =
  let events = Array.of_list (collect_counter ()) in
  let n_losses = ref 0 in
  Array.iteri
    (fun i (_, ev) ->
      match ev with
      | Event.Lock_conflict { requester; requester_wins = false; _ } ->
          incr n_losses;
          let rec next j =
            if j >= Array.length events then () (* horizon: unfinished *)
            else
              match snd events.(j) with
              | Event.Tx_committed { core; _ } when core = requester ->
                  Alcotest.failf
                    "core %d committed the attempt in which it lost the \
                     arbitration at seq %d"
                    requester i
              | Event.Tx_aborted { core; _ } when core = requester -> ()
              | _ -> next (j + 1)
          in
          next (i + 1)
      | _ -> ())
    events;
  check "lost arbitrations observed" true (!n_losses > 0)

(* The mutation test: replay the trace a *non-atomic* write-back
   would leave behind — the bug class PR 1 fixed, where a run horizon
   (or an interleaved reader) could observe the write set half
   applied. T0 buffers A:=1, B:=1 and publishes; T1 reads the new A
   but the old B from inside the write-back window. No lock rule is
   broken (T0's releases go out at its publish point), yet the
   history is not serializable: T0 -> T1 on A (WR) and T1 -> T0 on B
   (RW) close a cycle the oracle must report. *)
let test_mutation_nonatomic_writeback_caught () =
  let a = 100 and b = 101 in
  let e k = k in
  let events =
    [
      (1.0, Event.Tx_start { core = 0; attempt = 1; elastic = false });
      (2.0, Event.Tx_start { core = 1; attempt = 1; elastic = false });
      (3.0, Event.Tx_read { core = 0; addr = a; granted = true; value = 0 });
      (4.0, Event.Tx_read { core = 0; addr = b; granted = true; value = 0 });
      (5.0, Event.Tx_write { core = 0; addr = a; value = 1 });
      (6.0, Event.Tx_write { core = 0; addr = b; value = 1 });
      (7.0, Event.Tx_commit_begin { core = 0; attempt = 1; n_writes = 2 });
      (8.0, Event.Wlock_granted { core = 0; addrs = [ a; b ] });
      (9.0, Event.Tx_publish { core = 0; attempt = 1; n_writes = 2 });
      (* the fractured window: A already visible, B not yet *)
      (10.0, Event.Tx_read { core = 1; addr = a; granted = true; value = 1 });
      (11.0, Event.Tx_read { core = 1; addr = b; granted = true; value = 0 });
      (12.0, Event.Tx_committed { core = 0; attempt = 1; duration_ns = 11.0 });
      (13.0, Event.Tx_commit_begin { core = 1; attempt = 1; n_writes = 0 });
      (14.0, Event.Tx_publish { core = 1; attempt = 1; n_writes = 0 });
      (15.0, Event.Tx_committed { core = 1; attempt = 1; duration_ns = 13.0 });
    ]
    |> List.map e
  in
  let r = Check.run_list events in
  check "history itself is well-formed" true
    (r.Check.history.History.anomalies = []);
  check "lock discipline is clean (the bug is not a lock bug)" true
    (Lockset.ok r.Check.witness.Stream.w_lockset);
  check "oracle rejects the history" true
    (let v = r.Check.verdict in
     v.Stream.d_corruption <> [] || v.Stream.d_cycle <> None || v.Stream.d_opacity <> []);
  check "overall verdict fails" false (Check.passed r);
  (match r.Check.witness.Stream.w_cycle with
  | None -> Alcotest.fail "expected a conflict-graph cycle"
  | Some (edges, _) ->
      check_int "minimal witness: both transactions on the cycle" 2
        (List.length (List.sort_uniq compare (List.map (fun ed -> ed.Serial.e_from) edges)));
      let kinds =
        List.map (fun ed -> ed.Serial.e_kind) edges
        |> List.sort_uniq compare
      in
      check "cycle mixes WR and RW dependencies" true
        (kinds = [ Serial.Wr; Serial.Rw ] || kinds = [ Serial.Rw; Serial.Wr ]));
  let report = Check.report_string r in
  check "witness names the cycle" true
    (let contains s sub =
       let n = String.length s and m = String.length sub in
       let rec go i =
         i + m <= n && (String.sub s i m = sub || go (i + 1))
       in
       go 0
     in
     contains report "cycle")

(* The same two transactions with an atomic write-back (T1 reads both
   words after the burst) must sail through: the oracle's rejection
   above is specific to the fractured window, not to the shape. *)
let test_atomic_writeback_passes () =
  let a = 100 and b = 101 in
  let events =
    [
      (1.0, Event.Tx_start { core = 0; attempt = 1; elastic = false });
      (2.0, Event.Tx_start { core = 1; attempt = 1; elastic = false });
      (3.0, Event.Tx_read { core = 0; addr = a; granted = true; value = 0 });
      (4.0, Event.Tx_read { core = 0; addr = b; granted = true; value = 0 });
      (5.0, Event.Tx_write { core = 0; addr = a; value = 1 });
      (6.0, Event.Tx_write { core = 0; addr = b; value = 1 });
      (7.0, Event.Tx_commit_begin { core = 0; attempt = 1; n_writes = 2 });
      (8.0, Event.Wlock_granted { core = 0; addrs = [ a; b ] });
      (9.0, Event.Tx_publish { core = 0; attempt = 1; n_writes = 2 });
      (10.0, Event.Tx_read { core = 1; addr = a; granted = true; value = 1 });
      (11.0, Event.Tx_read { core = 1; addr = b; granted = true; value = 1 });
      (12.0, Event.Tx_committed { core = 0; attempt = 1; duration_ns = 11.0 });
      (13.0, Event.Tx_commit_begin { core = 1; attempt = 1; n_writes = 0 });
      (14.0, Event.Tx_publish { core = 1; attempt = 1; n_writes = 0 });
      (15.0, Event.Tx_committed { core = 1; attempt = 1; duration_ns = 13.0 });
    ]
  in
  let r = Check.run_list events in
  check "atomic write-back passes" true (Check.passed r)

(* Lockset mutation: a DS server that double-releases a write lock
   would be able to grant it to a second writer while the first still
   holds it. Simulate the aftermath by injecting a conflicting
   [Wlock_granted] right after a real one in an otherwise clean
   stream; the protocol checker must reject with a witness naming the
   exclusivity breach. *)
let test_mutation_double_wlock_grant_caught () =
  let events = collect_counter ~per_core:10 () in
  check "unmutated stream is clean" true
    (Lockset.ok (Lockset.analyze (Check.iter_of_list events)));
  let mutated =
    List.concat_map
      (fun (time, ev) ->
        match ev with
        | Event.Wlock_granted { core; addrs } when addrs <> [] ->
            let enemy = if core = 1 then 3 else 1 in
            [ (time, ev); (time, Event.Wlock_granted { core = enemy; addrs }) ]
        | _ -> [ (time, ev) ])
      events
  in
  let r = Lockset.analyze (Check.iter_of_list mutated) in
  check "double grant rejected" false (Lockset.ok r);
  check "witness names the exclusivity breach" true
    (List.exists
       (fun v -> contains v.Lockset.v_message "write-lock grant")
       r.Lockset.violations)

(* Lockset mutation: releasing a read lock before the attempt's end in
   a *non-elastic* transaction breaks two-phase locking. Inject an
   [Rlock_released] right after the first granted read; the checker
   must reject with a two-phase witness. *)
let test_mutation_early_read_release_caught () =
  let events = collect_counter ~per_core:10 () in
  let injected = ref false in
  let mutated =
    List.concat_map
      (fun (time, ev) ->
        match ev with
        | Event.Tx_read { core; addr; granted = true; _ } when not !injected ->
            injected := true;
            [ (time, ev); (time, Event.Rlock_released { core; addr }) ]
        | _ -> [ (time, ev) ])
      events
  in
  check "mutation applied" true !injected;
  let r = Lockset.analyze (Check.iter_of_list mutated) in
  check "early release rejected" false (Lockset.ok r);
  check "witness names the two-phase violation" true
    (List.exists
       (fun v -> contains v.Lockset.v_message "two-phase violation")
       r.Lockset.violations)

(* The lock checker frees a core's locks through a per-core index of
   the addresses it was granted. Entries go stale when a lock is
   revoked or re-granted, and a drop must then leave the lock alone.
   Core 1 is granted the write lock on x and is doomed by an enemy
   abort landing at y; core 2's grant on x takes over the stale
   entry. Core 1's abort must not free x: a later read grant to core
   3 still conflicts with core 2's write lock. *)
let test_lock_index_stale_write_entry () =
  let x = 10 and y = 11 in
  let r =
    Lockset.analyze
      (Check.iter_of_list
         [
           (1.0, Event.Tx_start { core = 1; attempt = 1; elastic = false });
           (2.0, Event.Tx_start { core = 2; attempt = 1; elastic = false });
           (3.0, Event.Tx_start { core = 3; attempt = 1; elastic = false });
           (4.0, Event.Tx_read { core = 1; addr = y; granted = true; value = 0 });
           (5.0, Event.Wlock_granted { core = 1; addrs = [ x ] });
           ( 6.0,
             Event.Enemy_aborted
               { server = 0; winner = 2; victim = 1; addr = y; conflict = Types.War } );
           (7.0, Event.Wlock_granted { core = 2; addrs = [ x ] });
           (8.0, Event.Tx_aborted { core = 1; attempt = 1; conflict = Some Types.War });
           (9.0, Event.Tx_read { core = 3; addr = x; granted = true; value = 0 });
         ])
  in
  match r.Lockset.violations with
  | [ v ] ->
      check "core 2 still holds x" true
        (contains v.Lockset.v_message
           (Printf.sprintf
              "read grant to core 3 on addr %d while core 2 holds the write \
               lock"
              x))
  | vs -> Alcotest.failf "expected one violation, got %d" (List.length vs)

(* Read-lock analogue: core 1's read lock on x is revoked by an enemy
   abort and then granted to it again, so its index lists x twice.
   The drop at its abort frees core 1's lock once and leaves core 3's
   read lock on x standing, so core 2's write grant names core 3 and
   only core 3. *)
let test_lock_index_regranted_read_entry () =
  let x = 10 in
  let r =
    Lockset.analyze
      (Check.iter_of_list
         [
           (1.0, Event.Tx_start { core = 1; attempt = 1; elastic = false });
           (2.0, Event.Tx_start { core = 2; attempt = 1; elastic = false });
           (3.0, Event.Tx_start { core = 3; attempt = 1; elastic = false });
           (4.0, Event.Tx_read { core = 1; addr = x; granted = true; value = 0 });
           ( 5.0,
             Event.Enemy_aborted
               { server = 0; winner = 2; victim = 1; addr = x; conflict = Types.War } );
           (6.0, Event.Tx_read { core = 1; addr = x; granted = true; value = 0 });
           (7.0, Event.Tx_read { core = 3; addr = x; granted = true; value = 0 });
           (8.0, Event.Tx_aborted { core = 1; attempt = 1; conflict = Some Types.War });
           (9.0, Event.Wlock_granted { core = 2; addrs = [ x ] });
         ])
  in
  match r.Lockset.violations with
  | [ v ] ->
      check "core 3's read lock survives core 1's drop" true
        (contains v.Lockset.v_message
           (Printf.sprintf
              "write-lock grant to core 2 on addr %d while core 3 holds a \
               read lock"
              x))
  | vs -> Alcotest.failf "expected one violation, got %d" (List.length vs)

(* A write grant to a doomed attempt is a replay, not a breach. At
   this seed a hot bank under Wholly loses messages: core 5's
   [Granted] for a write batch is dropped, a reader wins the next
   conflict on the address and the server revokes core 5's lock; core
   5's resend is absorbed and the cached [Granted] replayed, so it
   traces [Wlock_granted] while other cores read-hold the address, and
   then aborts on its status word. No attempt publishes under such a
   grant, and the lock checker must not report it. (The same shape as
   [tm2c-sim --bench bank --cores 16 --accounts 16 --balance 50
   --duration 4 --cm wholly --fault-plan drop=0.02 --timeout-ns 60000
   --seed 1 --check].) *)
let test_doomed_write_grant_replay_passes () =
  let t =
    Runtime.create { (cfg ~total:16 ~service:8 ~seed:1 ()) with Runtime.policy = Cm.Wholly }
  in
  (match Tm2c_noc.Fault.of_spec "drop=0.02" with
  | Ok p -> Runtime.set_fault_plan t p
  | Error m -> Alcotest.failf "fault plan: %s" m);
  Runtime.set_hardening t ~timeout_ns:60_000.0 ~lease_ns:0.0 ();
  let col = Collector.create () in
  Collector.attach col (Runtime.trace t);
  let accounts = 16 in
  let bank = Tm2c_apps.Bank.create t ~accounts ~initial:1000 in
  ignore
    (Tm2c_apps.Workload.drive t ~duration_ns:4e6 (fun _core ctx prng () ->
         if Tm2c_engine.Prng.int prng 100 < 50 then
           ignore (Tm2c_apps.Bank.tx_balance ctx bank)
         else
           let src = Tm2c_engine.Prng.int prng accounts
           and dst = Tm2c_engine.Prng.int prng accounts in
           Tm2c_apps.Bank.tx_transfer ctx bank ~src ~dst ~amount:1));
  Collector.detach (Runtime.trace t);
  let events = Collector.to_list col in
  (* The run must still hold the replay: a write grant to an attempt
     an enemy CAS has already doomed. *)
  let doomed = Hashtbl.create 16 in
  let replayed =
    List.exists
      (fun (_, ev) ->
        match ev with
        | Event.Tx_start { core; _ } ->
            Hashtbl.remove doomed core;
            false
        | Event.Enemy_aborted { victim; _ } ->
            Hashtbl.replace doomed victim ();
            false
        | Event.Wlock_granted { core; _ } -> Hashtbl.mem doomed core
        | _ -> false)
      events
  in
  check "a doomed attempt is granted a write lock" true replayed;
  let r = Check.run_list events in
  check "lock discipline is clean" true (Lockset.ok r.Check.witness.Stream.w_lockset);
  check "all checkers pass" true (Check.passed r)

(* The exemption above must not hide a doomed attempt that publishes:
   core 1 is doomed at y, granted x over core 3's live read lock, and
   writes x back. The grant itself is not judged, but the write-back
   under lock is. *)
let test_doomed_write_grant_publish_caught () =
  let x = 10 and y = 11 in
  let r =
    Lockset.analyze
      (Check.iter_of_list
         [
           (1.0, Event.Tx_start { core = 1; attempt = 1; elastic = false });
           (2.0, Event.Tx_start { core = 3; attempt = 1; elastic = false });
           (3.0, Event.Tx_read { core = 3; addr = x; granted = true; value = 0 });
           (4.0, Event.Tx_read { core = 1; addr = y; granted = true; value = 0 });
           ( 5.0,
             Event.Enemy_aborted
               { server = 0; winner = 2; victim = 1; addr = y; conflict = Types.War } );
           (6.0, Event.Tx_write { core = 1; addr = x; value = 1 });
           (7.0, Event.Wlock_granted { core = 1; addrs = [ x ] });
           (8.0, Event.Tx_commit_begin { core = 1; attempt = 1; n_writes = 1 });
           (9.0, Event.Tx_publish { core = 1; attempt = 1; n_writes = 1 });
         ])
  in
  check_int "the grant is counted" 3 r.Lockset.n_grants;
  match r.Lockset.violations with
  | [ v ] ->
      check "the write-back without the lock is reported" true
        (contains v.Lockset.v_message
           (Printf.sprintf
              "core 1 writing back addr %d without holding its write lock" x))
  | vs -> Alcotest.failf "expected one violation, got %d" (List.length vs)

(* One generator per Event constructor, in declaration order. *)
let gen_event =
  let open QCheck.Gen in
  let id = int_range (-1) 600 and n = oneof [ int_range (-5) 100; int ] in
  let fl =
    oneof [ float_range 0.0 1e7; map (fun x -> if Float.is_finite x then x else 0.5) float ]
  in
  let label = string_size ~gen:(char_range 'a' 'z') (int_range 1 10) in
  let cf = oneofl [ Types.Raw; Types.Waw; Types.War ] in
  [
    (let+ core = id and+ attempt = n and+ elastic = bool in
     Event.Tx_start { core; attempt; elastic });
    (let+ core = id and+ addr = n and+ granted = bool and+ value = n in
     Event.Tx_read { core; addr; granted; value });
    (let+ core = id and+ addr = n and+ value = n in Event.Tx_write { core; addr; value });
    (let+ core = id and+ attempt = n and+ n_writes = n in
     Event.Tx_commit_begin { core; attempt; n_writes });
    (let+ addr = n and+ value = n in Event.Host_write { addr; value });
    (let+ core = id and+ addr = n in Event.Rlock_released { core; addr });
    (let+ core = id and+ addrs = list_size (int_range 0 4) n in
     Event.Wlock_granted { core; addrs });
    (let+ core = id and+ attempt = n and+ n_writes = n in
     Event.Tx_publish { core; attempt; n_writes });
    (let+ core = id and+ attempt = n and+ duration_ns = fl in
     Event.Tx_committed { core; attempt; duration_ns });
    (let+ core = id and+ attempt = n and+ conflict = opt cf in
     Event.Tx_aborted { core; attempt; conflict });
    (let+ server = id and+ requester = id and+ enemy = id and+ addr = n
     and+ conflict = cf and+ requester_wins = bool in
     Event.Lock_conflict { server; requester; enemy; addr; conflict; requester_wins });
    (let+ server = id and+ winner = id and+ victim = id and+ addr = n
     and+ conflict = cf in
     Event.Enemy_aborted { server; winner; victim; addr; conflict });
    (let+ core = id and+ server = id and+ req_id = n and+ kind = label and+ n_addrs = n in
     Event.Req_sent { core; server; req_id; kind; n_addrs });
    (let+ server = id and+ requester = id and+ req_id = n and+ kind = label
     and+ queue_depth = n and+ occupancy = n in
     Event.Service { server; requester; req_id; kind; queue_depth; occupancy });
    (let+ server = id and+ requester = id and+ req_id = n in
     Event.Service_done { server; requester; req_id });
    (let+ core = id in Event.Barrier { core });
    (let+ src = id and+ dst = id in Event.Msg_dropped { src; dst });
    (let+ src = id and+ dst = id in Event.Msg_duplicated { src; dst });
    (let+ core = id and+ server = id and+ req_id = n and+ nth = n in
     Event.Req_resent { core; server; req_id; nth });
    (let+ core = id and+ attempt = n in Event.Core_crashed { core; attempt });
    (let+ server = id and+ victim = id and+ addr = n and+ aborted = bool in
     Event.Lease_reclaimed { server; victim; addr; aborted });
    (let+ server = id in Event.Server_crashed { server });
    (let+ part = n and+ epoch = n and+ by = id in Event.Epoch_bumped { part; epoch; by });
    (let+ server = id and+ src = id and+ part = n and+ n_addrs = n in
     Event.Replica_applied { server; src; part; n_addrs });
    (let+ server = id and+ part = n and+ epoch = n and+ merged = n in
     Event.Failover_done { server; part; epoch; merged });
    (let+ server = id and+ core = id and+ req_epoch = n and+ cur_epoch = n in
     Event.Stale_epoch_rejected { server; core; req_epoch; cur_epoch });
    (let+ core = id and+ tenant = n and+ queue_depth = n in
     Event.Req_admitted { core; tenant; queue_depth });
    (let+ core = id and+ tenant = n
     and+ reason = oneofl Types.[ Shed_queue_full; Shed_no_tokens; Shed_deadline ]
     and+ retry_after_ns = fl in
     Event.Req_shed { core; tenant; reason; retry_after_ns });
    (let+ core = id and+ tenant = n and+ waited_ns = fl in
     Event.Req_expired { core; tenant; waited_ns });
    (let+ core = id and+ tenant = n and+ retries = n in
     Event.Retry_budget_exhausted { core; tenant; retries });
  ]

(* Corner cases every generated log also carries: the empty write-lock
   batch, the STATUS abort, every shed reason, and payloads whose hex
   form has a fraction, a tiny or a huge exponent. *)
let pinned_events =
  [
    (0.0, Event.Wlock_granted { core = 1; addrs = [] });
    (0.1, Event.Tx_aborted { core = 1; attempt = 2; conflict = None });
    ( 1e-300,
      Event.Req_shed
        { core = 1; tenant = 0; reason = Types.Shed_queue_full; retry_after_ns = 0.1 } );
    ( 1.5,
      Event.Req_shed
        {
          core = 2;
          tenant = 1;
          reason = Types.Shed_no_tokens;
          retry_after_ns = 1e-300;
        } );
    ( Float.max_float,
      Event.Req_shed
        {
          core = 3;
          tenant = 2;
          reason = Types.Shed_deadline;
          retry_after_ns = Float.max_float;
        } );
    (2.0, Event.Req_expired { core = 1; tenant = 0; waited_ns = 123.456 });
  ]

let histlog_roundtrip_prop =
  let gen =
    QCheck.Gen.(
      list_size (int_range 0 60)
        (pair (float_range 0.0 1e9) (oneof gen_event)))
  in
  QCheck.Test.make ~name:"histlog round-trips every event kind" ~count:200
    (QCheck.make gen ~print:(fun evs ->
         String.concat "\n"
           (List.map (fun (t, ev) -> Printf.sprintf "%h %s" t (Event.to_string ev)) evs)))
    (fun generated ->
      let events = pinned_events @ generated in
      Tmp.with_written ~suffix:".log"
        (fun oc -> Histlog.write oc (Check.iter_of_list events))
        (fun () path -> fst (Histlog.load path) = events))

(* The trace ring keeps events as flat columns; what it hands back
   must be what was recorded. Rings far smaller than the run wrap many
   times, so side-ring list data is overwritten and regrown under live
   slots. *)
module Trace = Tm2c_engine.Trace

let ring_of ~capacity events =
  let tr = Trace.create ~capacity ~codec:Event.ring_codec () in
  Trace.enable tr;
  List.iter (fun (t, ev) -> Trace.record tr ~now:t ev) events;
  tr

let last n l = List.filteri (fun i _ -> i >= List.length l - n) l

(* Every conflict label at every field that carries one, and write-lock
   batches from empty to long. *)
let ring_pinned =
  let cfs = Types.[ Raw; Waw; War ] in
  pinned_events
  @ List.concat_map
      (fun conflict ->
        [
          (3.0, Event.Tx_aborted { core = 2; attempt = 5; conflict = Some conflict });
          ( 3.5,
            Event.Lock_conflict
              { server = 7; requester = 2; enemy = 3; addr = 64; conflict; requester_wins = true } );
          (4.0, Event.Enemy_aborted { server = 7; winner = 2; victim = 3; addr = 64; conflict });
        ])
      cfs
  @ [ (5.0, Event.Wlock_granted { core = 4; addrs = List.init 1000 (fun i -> 3 * i) }) ]

let gen_long_wlock =
  QCheck.Gen.(
    let+ core = int_range 0 600
    and+ addrs = list_size (int_range 0 200) (oneof [ int_range 0 100_000; int ]) in
    Event.Wlock_granted { core; addrs })

let ring_roundtrip_prop =
  let gen =
    QCheck.Gen.(
      pair (int_range 1 40)
        (list_size (int_range 0 300)
           (pair (float_range 0.0 1e9) (oneof (gen_long_wlock :: gen_event)))))
  in
  QCheck.Test.make ~name:"trace ring round-trips every event kind" ~count:200
    (QCheck.make gen ~print:(fun (capacity, evs) ->
         String.concat "\n"
           (Printf.sprintf "capacity %d" capacity
           :: List.map (fun (t, ev) -> Printf.sprintf "%h %s" t (Event.to_string ev)) evs)))
    (fun (capacity, generated) ->
      let events = ring_pinned @ generated in
      let n = List.length events in
      let kept = min n capacity in
      let tr = ring_of ~capacity events in
      (* The whole run through a ring that never wraps, too. *)
      Trace.to_list (ring_of ~capacity:(n + 1) events) = events
      && Trace.length tr = kept
      && Trace.dropped tr = n - kept
      && Trace.to_list tr = last kept events)

let test_ring_clear () =
  let ev i = Event.Wlock_granted { core = i; addrs = List.init i Fun.id } in
  let events = List.init 6 (fun i -> (float_of_int i, ev i)) in
  let tr = Trace.create ~capacity:4 ~codec:Event.ring_codec () in
  Trace.record tr ~now:0.0 (ev 9);
  check_int "disabled: nothing recorded" 0 (Trace.length tr);
  Trace.enable tr;
  List.iter (fun (t, e) -> Trace.record tr ~now:t e) events;
  check_int "length is capped at capacity" 4 (Trace.length tr);
  check_int "dropped counts the overwritten" 2 (Trace.dropped tr);
  check "the newest four, oldest first" true (Trace.to_list tr = last 4 events);
  Trace.clear tr;
  check_int "cleared: length" 0 (Trace.length tr);
  check_int "cleared: dropped" 0 (Trace.dropped tr);
  check "cleared: empty" true (Trace.to_list tr = []);
  List.iter (fun (t, e) -> Trace.record tr ~now:t e) (last 2 events);
  check_int "refilled: length" 2 (Trace.length tr);
  check_int "refilled: dropped" 0 (Trace.dropped tr);
  check "refilled: the new events" true (Trace.to_list tr = last 2 events)

(* The writer prints numbers without Printf: each line it writes must
   be byte for byte the line Printf's "%h" and "%d" give, and each
   written float must parse back to the same bits. *)
let put_lines events =
  Tmp.with_written ~suffix:".log"
    (fun oc ->
      let w = Histlog.writer_of_channel oc in
      List.iter (fun (t, ev) -> Histlog.put w t ev) events;
      Histlog.close_writer w)
    (fun () path ->
      In_channel.with_open_text path In_channel.input_all
      |> String.split_on_char '\n'
      |> List.filter (fun l -> l <> "" && l.[0] <> '#')
      |> List.map (fun l -> l ^ "\n"))

let reference_line (t, ev) =
  match (ev : Event.t) with
  | Tx_committed { core; attempt; duration_ns } ->
      Printf.sprintf "%h COM %d %d %h\n" t core attempt duration_ns
  | Host_write { addr; value } -> Printf.sprintf "%h HW %d %d\n" t addr value
  | Wlock_granted { core; addrs } ->
      Printf.sprintf "%h WLK %d %s\n" t core
        (String.concat "," (List.map string_of_int addrs))
  | _ -> Alcotest.fail "no reference for this event"

let gen_bits_float =
  let open QCheck.Gen in
  (* sign, biased exponent below 0x7ff (finite), 52-bit fraction *)
  let+ neg = bool and+ biased = int_range 0 0x7fe and+ frac = ui64 in
  let frac = Int64.logand frac 0xf_ffff_ffff_ffffL in
  let bits = Int64.logor (Int64.shift_left (Int64.of_int biased) 52) frac in
  Int64.float_of_bits (if neg then Int64.logor bits Int64.min_int else bits)

let gen_edge_float =
  let open QCheck.Gen in
  let subnormal =
    let+ frac = ui64 in
    Int64.float_of_bits (Int64.logand frac 0xf_ffff_ffff_ffffL)
  in
  let+ x =
    oneof
      [
        subnormal;
        oneofl
          [
            0.0; Float.min_float; Float.max_float; 5e-324;
            Float.pred Float.min_float; Float.succ 0.0; 1.0; 0.5; Float.epsilon;
            4e7; Float.succ 4e7;
          ];
      ]
  and+ neg = bool in
  if neg then Float.neg x else x

let gen_parity_int =
  let open QCheck.Gen in
  let pow10 = List.init 19 (fun k -> int_of_float (10. ** float_of_int k)) in
  let+ n =
    oneof
      [
        int;
        oneofl ([ min_int; max_int; 0; 1; -1 ] @ pow10 @ List.map pred pow10);
      ]
  and+ neg = bool in
  if neg && n <> min_int then -n else n

let gen_parity_event =
  let open QCheck.Gen in
  let fl = oneof [ gen_bits_float; gen_edge_float ] and n = gen_parity_int in
  let ev =
    oneof
      [
        (let+ core = n and+ attempt = n and+ duration_ns = fl in
         Event.Tx_committed { core; attempt; duration_ns });
        (let+ addr = n and+ value = n in Event.Host_write { addr; value });
        (let+ core = n
         and+ addrs = oneof [ return []; list_size (int_range 1 4) n; list_size (return 300) n ]
         in
         Event.Wlock_granted { core; addrs });
      ]
  in
  pair fl ev

let histlog_put_parity_prop =
  QCheck.Test.make ~name:"histlog put prints like %h and %d" ~count:300
    (QCheck.make
       QCheck.Gen.(list_size (int_range 1 40) gen_parity_event)
       ~print:(fun evs -> String.concat "" (List.map reference_line evs)))
    (fun events ->
      List.for_all2
        (fun line ((t, ev) as e) ->
          let tokens = Array.of_list (String.split_on_char ' ' (String.trim line)) in
          let floats =
            (tokens.(0), t)
            ::
            (match (ev : Event.t) with
            | Tx_committed { duration_ns; _ } -> [ (tokens.(4), duration_ns) ]
            | _ -> [])
          in
          line = reference_line e
          && List.for_all
               (fun (s, x) ->
                 Int64.equal
                   (Int64.bits_of_float (float_of_string s))
                   (Int64.bits_of_float x))
               floats)
        (put_lines events) events)

(* The writer refuses what the reader refuses: a non-finite float
   raises at [put], naming the record and the field. *)
let test_histlog_put_refuses_nonfinite () =
  let refused t ev =
    match put_lines [ (t, ev) ] with
    | _ -> None
    | exception Invalid_argument msg -> Some msg
  in
  List.iter
    (fun (what, t, ev, field) ->
      match refused t ev with
      | Some msg ->
          check (what ^ " names the record") true (contains msg "EXP");
          check (what ^ " names the field") true (contains msg field)
      | None -> Alcotest.failf "%s written" what)
    [
      ( "nan waited_ns",
        1.0,
        Event.Req_expired { core = 1; tenant = 0; waited_ns = Float.nan },
        "waited_ns" );
      ( "infinite waited_ns",
        1.0,
        Event.Req_expired { core = 1; tenant = 0; waited_ns = Float.neg_infinity },
        "waited_ns" );
      ( "infinite timestamp",
        Float.infinity,
        Event.Req_expired { core = 1; tenant = 0; waited_ns = 1.0 },
        "timestamp" );
    ]

(* Every constructor has its generator and its own table row, and the
   recorder's allocation-free index points at the row [describe]
   returns. *)
let test_event_table () =
  let n = List.length Event.kinds in
  check_int "one generator per constructor" n (List.length gen_event);
  let distinct f = List.length (List.sort_uniq compare (List.map f Event.kinds)) in
  check_int "distinct tags" n (distinct (fun k -> k.Event.tag));
  check_int "distinct names" n (distinct (fun k -> k.Event.name));
  List.iteri
    (fun i g ->
      let ev = QCheck.Gen.generate1 g in
      let k, _ = Event.describe ev in
      check_int ("index of constructor " ^ string_of_int i) i (Event.index ev);
      check ("row of " ^ k.Event.name) true (List.nth Event.kinds i == k))
    gen_event

let test_liveness_budget () =
  (* Synthetic starving core: [budget] consecutive aborts trip the
     monitor; one fewer stays clean. *)
  let mk n =
    List.concat
      (List.init n (fun i ->
           let t = float_of_int (i * 2) in
           [
             (t, Event.Tx_start { core = 0; attempt = i + 1; elastic = false });
             ( t +. 1.0,
               Event.Tx_aborted { core = 0; attempt = i + 1; conflict = None }
             );
           ]))
  in
  let r = Check.run_list ~liveness_budget:5 (mk 5) in
  check "budget-length chain trips the monitor" false
    (Liveness.ok r.Check.witness.Stream.w_liveness);
  let r = Check.run_list ~liveness_budget:5 (mk 4) in
  check "shorter chain is clean" true (Liveness.ok r.Check.witness.Stream.w_liveness)

(* Two cores abort three times each: the chains tie on length, and
   both drivers list them by core whichever core's closes arrive
   first. *)
let test_liveness_tied_order () =
  let chain core t0 =
    List.concat
      (List.init 3 (fun i ->
           let t = t0 +. float_of_int (i * 2) in
           [
             (t, Event.Tx_start { core; attempt = i + 1; elastic = false });
             (t +. 1.0, Event.Tx_aborted { core; attempt = i + 1; conflict = None });
           ]))
  in
  List.iter
    (fun (name, events) ->
      let r = Check.run_list ~liveness_budget:3 events in
      let l = r.Check.witness.Stream.w_liveness in
      Alcotest.(check (list int))
        (name ^ ": tied chains by core") [ 2; 5 ]
        (List.map (fun (ch : Liveness.chain) -> ch.Liveness.ch_core) l.Liveness.violations);
      check_int (name ^ ": max chain is the first") 2
        (match l.Liveness.max_chain with Some ch -> ch.Liveness.ch_core | None -> -1);
      let s = Stream.create ~liveness_budget:3 () in
      List.iter (fun (now, ev) -> Stream.feed s now ev) events;
      check (name ^ ": streaming report = batch report") true
        ((Stream.finish s).Stream.d_liveness = l))
    [
      ("core 2 first", chain 2 0.0 @ chain 5 10.0);
      ("core 5 first", chain 5 0.0 @ chain 2 10.0);
    ]

(* A replayed history log can name any core id: the monitor keys its
   per-core state by id rather than indexing by it. *)
let test_liveness_any_core_id () =
  let events =
    List.concat_map
      (fun (core, t) ->
        [
          (t, Event.Tx_start { core; attempt = 1; elastic = false });
          (t +. 1.0, Event.Tx_aborted { core; attempt = 1; conflict = None });
        ])
      [ (-1, 0.0); (100_000, 2.0) ]
  in
  let r = Check.run_list ~liveness_budget:1 events in
  Alcotest.(check (list int))
    "both chains reported" [ -1; 100_000 ]
    (List.map (fun (ch : Liveness.chain) -> ch.Liveness.ch_core)
       r.Check.witness.Stream.w_liveness.Liveness.violations)

let test_status_label () =
  Alcotest.(check string)
    "status-CAS abort label" "STATUS"
    (Event.conflict_opt_to_string None)

let suite =
  [
    Alcotest.test_case "clean counter run passes" `Slow test_clean_run_passes;
    Alcotest.test_case "histlog round-trips exactly" `Quick
      test_histlog_roundtrip;
    Alcotest.test_case "histlog rejects unknown header" `Quick
      test_histlog_rejects_garbage;
    Alcotest.test_case "one decision event per arbitration" `Slow
      test_one_decision_per_arbitration;
    Alcotest.test_case "enemy abort follows a winning decision" `Slow
      test_enemy_abort_follows_winning_decision;
    Alcotest.test_case "losing requester aborts" `Slow
      test_losing_requester_aborts;
    Alcotest.test_case "mutation: non-atomic write-back caught" `Quick
      test_mutation_nonatomic_writeback_caught;
    Alcotest.test_case "atomic write-back passes" `Quick
      test_atomic_writeback_passes;
    Alcotest.test_case "mutation: double write-lock grant caught" `Quick
      test_mutation_double_wlock_grant_caught;
    Alcotest.test_case "mutation: early read-lock release caught" `Quick
      test_mutation_early_read_release_caught;
    Alcotest.test_case "lock index: stale write entry left alone" `Quick
      test_lock_index_stale_write_entry;
    Alcotest.test_case "lock index: re-granted read freed once" `Quick
      test_lock_index_regranted_read_entry;
    Alcotest.test_case "doomed write grant replay passes" `Quick
      test_doomed_write_grant_replay_passes;
    Alcotest.test_case "doomed write grant publish caught" `Quick
      test_doomed_write_grant_publish_caught;
    QCheck_alcotest.to_alcotest histlog_roundtrip_prop;
    QCheck_alcotest.to_alcotest histlog_put_parity_prop;
    QCheck_alcotest.to_alcotest ring_roundtrip_prop;
    Alcotest.test_case "trace ring: clear, dropped and length" `Quick test_ring_clear;
    Alcotest.test_case "histlog put refuses non-finite floats" `Quick
      test_histlog_put_refuses_nonfinite;
    Alcotest.test_case "event table has one row per constructor" `Quick
      test_event_table;
    Alcotest.test_case "liveness budget" `Quick test_liveness_budget;
    Alcotest.test_case "liveness: tied chains ordered by core" `Quick
      test_liveness_tied_order;
    Alcotest.test_case "liveness: any core id in a replayed log" `Quick
      test_liveness_any_core_id;
    Alcotest.test_case "STATUS abort label" `Quick test_status_label;
  ]
