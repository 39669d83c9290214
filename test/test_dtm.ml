(* Protocol-level tests of the DS-Lock service: drive Dtm.handle
   directly with hand-built requests on a tiny simulated machine and
   inspect the lock table, the responses, and the victims' status
   words (Algorithms 1 and 2, revocation, batching rollback). *)

open Tm2c_core
open Tm2c_core.Types
open Tm2c_engine

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* A machine with one DTM core (0) and three app cores (1, 2, 3); we
   play the app cores by sending requests from the host side and
   reading the responses out of the network. *)
type rig = {
  t : Runtime.t;
  server : Dtm.server;
  env : System.env;
  mutable req_id : int;
}

let make_rig ?(policy = Cm.Fair_cm) () =
  let cfg = { Runtime.default_config with total_cores = 4; service_cores = 1; policy } in
  let t = Runtime.create cfg in
  let env = Runtime.env t in
  { t; server = Dtm.make ~n_cores:4 ~core:0; env; req_id = 100 }

let meta rig ~core ?(attempt = 0) ?(committed = 0) ?(effective = 0.0) () =
  ignore rig;
  {
    m_core = core;
    m_attempt = attempt;
    m_offset_ns = 0.0;
    m_committed = committed;
    m_effective_ns = effective;
  }

(* Put the core's status word in the state the DTM expects. *)
let set_status rig ~core ~attempt state =
  Tm2c_memory.Atomic_reg.poke rig.env.System.regs ~reg:core
    (Status.encode ~attempt state)

let status_of rig ~core =
  Status.decode (Tm2c_memory.Atomic_reg.peek rig.env.System.regs ~reg:core)

(* Run [Dtm.handle] inside the simulation and return the response the
   server sent back to the requester (None for releases). *)
let submit rig ~core kind ~m =
  rig.req_id <- rig.req_id + 1;
  let req = { System.tx = m; kind; req_id = rig.req_id; epoch = 0 } in
  let result = ref None in
  Sim.spawn (Runtime.sim rig.t) (fun () ->
      Dtm.handle rig.env rig.server req;
      (* Let the response cross the interconnect. *)
      Sim.delay 1e6;
      match Tm2c_noc.Network.try_recv rig.env.System.net ~self:core with
      | Some (System.Resp r) ->
          assert (r.req_id = rig.req_id);
          result := Some r.resp
      | Some (System.Req _) | Some (System.Repl _) | None -> ());
  (* A horizon relative to the current clock: [run ~until] now clamps
     the clock to the horizon even when the queue drains early, so an
     absolute horizon would leave later submits no headroom. *)
  let _ = Runtime.run rig.t ~until:(Sim.now (Runtime.sim rig.t) +. 1e9) () in
  !result

let test_read_grant_and_release () =
  let rig = make_rig () in
  let m1 = meta rig ~core:1 () in
  set_status rig ~core:1 ~attempt:0 Status.Pending;
  check "read granted" true (submit rig ~core:1 (System.Read_lock 7) ~m:m1 = Some System.Granted);
  check_int "one locked address" 1 (Locktable.n_locked (Dtm.locks rig.server));
  (* Stale release (wrong attempt) ignored; matching release applies. *)
  ignore (submit rig ~core:1 (System.Release_reads [ 7 ]) ~m:(meta rig ~core:1 ~attempt:5 ()));
  check_int "stale release ignored" 1 (Locktable.n_locked (Dtm.locks rig.server));
  ignore (submit rig ~core:1 (System.Release_reads [ 7 ]) ~m:m1);
  check_int "released" 0 (Locktable.n_locked (Dtm.locks rig.server))

let test_multiple_readers_share () =
  let rig = make_rig () in
  set_status rig ~core:1 ~attempt:0 Status.Pending;
  set_status rig ~core:2 ~attempt:0 Status.Pending;
  check "reader 1" true
    (submit rig ~core:1 (System.Read_lock 7) ~m:(meta rig ~core:1 ()) = Some System.Granted);
  check "reader 2 shares" true
    (submit rig ~core:2 (System.Read_lock 7) ~m:(meta rig ~core:2 ()) = Some System.Granted);
  let entry = Locktable.entry (Dtm.locks rig.server) 7 in
  check_int "two readers" 2 (List.length entry.Locktable.readers)

(* Batch rollback: a conflict in the middle of a write batch must
   release the locks granted earlier in the same batch. *)
let test_batch_rollback () =
  let rig = make_rig () in
  set_status rig ~core:1 ~attempt:0 Status.Pending;
  set_status rig ~core:2 ~attempt:0 Status.Pending;
  check "enemy takes the middle address" true
    (submit rig ~core:1 (System.Write_locks [ 11 ]) ~m:(meta rig ~core:1 ())
    = Some System.Granted);
  (* Core 2 (lower priority) asks for 10, 11, 12 in one batch. *)
  check "batch conflicts on 11" true
    (submit rig ~core:2 (System.Write_locks [ 10; 11; 12 ]) ~m:(meta rig ~core:2 ())
    = Some (System.Conflicted Waw));
  check "10 rolled back" true (Locktable.find (Dtm.locks rig.server) 10 = None);
  check "12 never granted" true (Locktable.find (Dtm.locks rig.server) 12 = None);
  let e11 = Locktable.entry (Dtm.locks rig.server) 11 in
  check "11 still owned by core 1" true
    (match e11.Locktable.writer with Some w -> w.h_core = 1 | None -> false)

(* Re-acquisition by the same transaction is never a self-conflict. *)
let test_no_self_conflict () =
  let rig = make_rig () in
  set_status rig ~core:1 ~attempt:0 Status.Pending;
  let m = meta rig ~core:1 () in
  check "read" true (submit rig ~core:1 (System.Read_lock 8) ~m = Some System.Granted);
  check "then write same address" true
    (submit rig ~core:1 (System.Write_locks [ 8 ]) ~m = Some System.Granted);
  check "read again as writer" true
    (submit rig ~core:1 (System.Read_lock 8) ~m = Some System.Granted)

(* No-CM: the detecting transaction always aborts, nobody is revoked. *)
let test_nocm_always_requester () =
  let rig = make_rig ~policy:Cm.No_cm () in
  set_status rig ~core:1 ~attempt:0 Status.Pending;
  set_status rig ~core:2 ~attempt:0 Status.Pending;
  check "writer granted" true
    (submit rig ~core:2 (System.Write_locks [ 2 ]) ~m:(meta rig ~core:2 ())
    = Some System.Granted);
  check "reader aborts itself" true
    (submit rig ~core:1 (System.Read_lock 2) ~m:(meta rig ~core:1 ())
    = Some (System.Conflicted Raw));
  check "writer untouched" true (status_of rig ~core:2 = (0, Status.Pending))

(* ---- one contention path, observed three ways ---- *)

(* Every conflict is checked by its response, the abort causality
   charged in [Obs], and the trace: one [Lock_conflict] whose enemy is
   the contention manager's first blocker, then one [Enemy_aborted] per
   enemy aborted. The requester is core 1; the enemies are core 2
   (RAW, WAW: the writer of address 5) or cores 2 and 3 (WAR: readers
   granted in that order, so the table lists core 3 first). FairCM
   ranks by effective time, lower first, and breaks a tie by core id,
   lower first; the requester's effective time is 5000. *)
type standing =
  | Stronger  (** core 2 beats the requester (core 3 does not) *)
  | Weaker  (** the requester beats every enemy *)
  | Tied  (** weaker, but core 2 ties the requester and loses on core id *)
  | Committing  (** weaker, but every enemy is past its commit point *)
  | Stale  (** weaker, and every enemy has moved on to attempt 3 *)

let traced_rig () =
  let rig = make_rig () in
  let col = Tm2c_check.Collector.create () in
  Tm2c_check.Collector.attach col (Runtime.trace rig.t);
  (rig, col)

(* The conflict events of the trace, and the Obs charges, as lines. *)
let conflict_events col =
  List.filter_map
    (fun (_, ev) ->
      match ev with
      | Event.Lock_conflict { requester; enemy; addr; conflict; requester_wins; _ } ->
          Some
            (Printf.sprintf "%s at %d: %d %s against %d" (conflict_to_string conflict)
               addr requester
               (if requester_wins then "wins" else "loses")
               enemy)
      | Event.Enemy_aborted { winner; victim; addr; conflict; _ } ->
          Some
            (Printf.sprintf "%s at %d: %d aborted by %d" (conflict_to_string conflict)
               addr victim winner)
      | _ -> None)
    (Tm2c_check.Collector.to_list col)

let obs_lines rig =
  List.sort compare
    (List.map
       (fun (k, n, addr) ->
         Printf.sprintf "%d beat %d on %s at %d x%d" k.Obs.winner k.Obs.victim
           (conflict_to_string k.Obs.conflict)
           addr n)
       (Obs.dump rig.env.System.obs))

let check_lines name expected got = Alcotest.(check (list string)) name expected got

let test_contend conflict standing () =
  let rig, col = traced_rig () in
  let addr = 5 in
  let enemies = match conflict with War -> [ 2; 3 ] | Raw | Waw -> [ 2 ] in
  let listed = List.rev enemies in
  List.iter
    (fun c ->
      set_status rig ~core:c ~attempt:0 Status.Pending;
      let effective =
        match (standing, c) with
        | Stronger, 2 -> 0.0
        | Tied, 2 -> 5000.0
        | _ -> 9000.0
      in
      let kind =
        if conflict = War then System.Read_lock addr else System.Write_locks [ addr ]
      in
      check "enemy granted" true
        (submit rig ~core:c kind ~m:(meta rig ~core:c ~effective ()) = Some System.Granted))
    enemies;
  List.iter
    (fun c ->
      match standing with
      | Committing -> set_status rig ~core:c ~attempt:0 Status.Committing
      | Stale -> set_status rig ~core:c ~attempt:3 Status.Pending
      | Stronger | Weaker | Tied -> ())
    enemies;
  set_status rig ~core:1 ~attempt:0 Status.Pending;
  let kind = if conflict = Raw then System.Read_lock addr else System.Write_locks [ addr ] in
  let resp = submit rig ~core:1 kind ~m:(meta rig ~core:1 ~effective:5000.0 ()) in
  let c = conflict_to_string conflict in
  let won = standing = Weaker || standing = Tied in
  let granted = won || standing = Stale in
  check "response" true
    (resp = Some (if granted then System.Granted else System.Conflicted conflict));
  let blocker = if standing = Stronger then 2 else List.hd listed in
  check_lines "conflict events"
    (Printf.sprintf "%s at %d: 1 %s against %d" c addr
       (if standing = Stronger then "loses" else "wins")
       blocker
    :: (if won then
          List.map (fun e -> Printf.sprintf "%s at %d: %d aborted by 1" c addr e) listed
        else []))
    (conflict_events col);
  check_lines "abort causality"
    (List.sort compare
       (match standing with
       | Stronger -> [ Printf.sprintf "2 beat 1 on %s at %d x1" c addr ]
       | Weaker | Tied ->
           List.map (fun e -> Printf.sprintf "1 beat %d on %s at %d x1" e c addr) enemies
       | Committing -> [ Printf.sprintf "%d beat 1 on %s at %d x1" (List.hd listed) c addr ]
       | Stale -> []))
    (obs_lines rig);
  List.iter
    (fun e ->
      check "enemy status" true
        (status_of rig ~core:e
        =
        match standing with
        | Stronger -> (0, Status.Pending)
        | Weaker | Tied -> (0, Status.Aborted)
        | Committing -> (0, Status.Committing)
        | Stale -> (3, Status.Pending)))
    enemies;
  let e = Locktable.entry (Dtm.locks rig.server) addr in
  let writer = Option.map (fun w -> w.h_core) e.Locktable.writer in
  let readers = List.sort compare (List.map (fun r -> r.h_core) e.Locktable.readers) in
  match (granted, conflict) with
  | true, Raw ->
      check "requester reads, writer revoked" true (writer = None && readers = [ 1 ])
  | true, (Waw | War) ->
      check "requester writes, enemies revoked" true (writer = Some 1 && readers = [])
  | false, War -> check "readers keep the lock" true (writer = None && readers = enemies)
  | false, (Raw | Waw) -> check "writer keeps the lock" true (writer = Some 2)

(* A mixed WAR batch: core 1 beats both readers of 5, but the reader
   listed first (core 3) is pending and the one behind it (core 2) is
   past its commit point. Core 3 is aborted and revoked before core 2
   is met, stays so, and the causality flips to core 2; the batch is
   refused and its earlier grant on 4 rolled back. *)
let test_war_mixed_batch () =
  let rig, col = traced_rig () in
  List.iter
    (fun c ->
      set_status rig ~core:c ~attempt:0 Status.Pending;
      check "reader granted" true
        (submit rig ~core:c (System.Read_lock 5) ~m:(meta rig ~core:c ~effective:9000.0 ())
        = Some System.Granted))
    [ 2; 3 ];
  set_status rig ~core:2 ~attempt:0 Status.Committing;
  set_status rig ~core:1 ~attempt:0 Status.Pending;
  check "batch refused with WAR" true
    (submit rig ~core:1 (System.Write_locks [ 4; 5 ]) ~m:(meta rig ~core:1 ())
    = Some (System.Conflicted War));
  check_lines "conflict events"
    [ "WAR at 5: 1 wins against 3"; "WAR at 5: 3 aborted by 1" ]
    (conflict_events col);
  check_lines "abort causality"
    [ "1 beat 3 on WAR at 5 x1"; "2 beat 1 on WAR at 5 x1" ]
    (obs_lines rig);
  check "first reader stays aborted" true (status_of rig ~core:3 = (0, Status.Aborted));
  check "committing reader untouched" true (status_of rig ~core:2 = (0, Status.Committing));
  let e5 = Locktable.entry (Dtm.locks rig.server) 5 in
  check "first reader revoked, committing reader kept" true
    (List.map (fun r -> r.h_core) e5.Locktable.readers = [ 2 ] && e5.Locktable.writer = None);
  check "earlier grant on 4 rolled back" true (Locktable.find (Dtm.locks rig.server) 4 = None)

let contend_cases =
  List.concat_map
    (fun conflict ->
      List.map
        (fun (standing, label) ->
          ( Printf.sprintf "dtm: %s, %s" (conflict_to_string conflict) label,
            `Quick,
            test_contend conflict standing ))
        [
          (Stronger, "requester loses");
          (Weaker, "enemies lose");
          (Tied, "tie, lower core wins");
          (Committing, "committing enemy");
          (Stale, "stale enemy");
        ])
    [ Raw; Waw; War ]

let suite =
  [
    ("dtm: read grant and attempt-checked release", `Quick, test_read_grant_and_release);
    ("dtm: readers share", `Quick, test_multiple_readers_share);
    ("dtm: batch rollback on conflict", `Quick, test_batch_rollback);
    ("dtm: no self-conflict", `Quick, test_no_self_conflict);
    ("dtm: no-CM aborts the detector", `Quick, test_nocm_always_requester);
    ("dtm: WAR batch, pending reader before committing", `Quick, test_war_mixed_batch);
  ]
  @ contend_cases
