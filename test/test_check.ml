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
    max_skew_ns = 3_000.0;
    seed;
    mem_words = 1 lsl 18;
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
    (Array.length r.Check.serial.Serial.txns > 0);
  check "some grants replayed" true (r.Check.lockset.Lockset.n_grants > 0)

let test_histlog_roundtrip () =
  let events = collect_counter ~per_core:10 () in
  check "trace nonempty" true (events <> []);
  let path = Filename.temp_file "tm2c_hist" ".log" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Histlog.save path (Check.iter_of_list events);
      let loaded = Histlog.load path in
      check_int "same event count" (List.length events) (List.length loaded);
      (* Hex-float timestamps make the round-trip exact, so plain
         structural equality must hold. *)
      check "events round-trip exactly" true (events = loaded))

(* A log must start with the v5 header (older versions are no longer
   read), and every malformed line fails with its line number:
   non-finite numbers, unknown labels, wrong arity. *)
let test_histlog_rejects_garbage () =
  let path = Filename.temp_file "tm2c_hist" ".log" in
  let load_fails contents =
    Out_channel.with_open_text path (fun oc -> output_string oc contents);
    match Histlog.load path with _ -> None | exception Failure msg -> Some msg
  in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
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
        ])

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
    (Lockset.ok r.Check.lockset);
  check "oracle rejects the history" false (Serial.ok r.Check.serial);
  check "overall verdict fails" false (Check.passed r);
  (match r.Check.serial.Serial.cycle with
  | None -> Alcotest.fail "expected a conflict-graph cycle"
  | Some c ->
      check_int "minimal witness: both transactions on the cycle" 2
        (List.length c.Serial.c_txns);
      let kinds =
        List.map (fun ed -> ed.Serial.e_kind) c.Serial.c_edges
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
      let path = Filename.temp_file "tm2c_hist" ".log" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Histlog.save path (Check.iter_of_list events);
          Histlog.load path = events))

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
    (Liveness.ok r.Check.liveness);
  let r = Check.run_list ~liveness_budget:5 (mk 4) in
  check "shorter chain is clean" true (Liveness.ok r.Check.liveness)

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
    QCheck_alcotest.to_alcotest histlog_roundtrip_prop;
    Alcotest.test_case "event table has one row per constructor" `Quick
      test_event_table;
    Alcotest.test_case "liveness budget" `Quick test_liveness_budget;
    Alcotest.test_case "STATUS abort label" `Quick test_status_label;
  ]
