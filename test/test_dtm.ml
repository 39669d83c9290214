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
  let cfg =
    {
      Runtime.default_config with
      total_cores = 4;
      service_cores = 1;
      policy;
      mem_words = 1 lsl 16;
    }
  in
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

(* RAW: a reader finding a higher-priority writer loses. *)
let test_raw_requester_loses () =
  let rig = make_rig () in
  set_status rig ~core:1 ~attempt:0 Status.Pending;
  set_status rig ~core:2 ~attempt:0 Status.Pending;
  (* Core 1 writes first (and has higher priority by core-id tie
     break under FairCM at equal effective time). *)
  check "writer granted" true
    (submit rig ~core:1 (System.Write_locks [ 9 ]) ~m:(meta rig ~core:1 ())
    = Some System.Granted);
  check "lower-priority reader gets RAW" true
    (submit rig ~core:2 (System.Read_lock 9) ~m:(meta rig ~core:2 ())
    = Some (System.Conflicted Raw))

(* RAW where the reader has higher priority: the writer is aborted
   remotely via its status word and its lock revoked. *)
let test_raw_enemy_aborted () =
  let rig = make_rig () in
  set_status rig ~core:1 ~attempt:0 Status.Pending;
  set_status rig ~core:2 ~attempt:0 Status.Pending;
  check "low-priority writer granted" true
    (submit rig ~core:2 (System.Write_locks [ 9 ])
       ~m:(meta rig ~core:2 ~effective:5000.0 ())
    = Some System.Granted);
  check "high-priority reader granted" true
    (submit rig ~core:1 (System.Read_lock 9) ~m:(meta rig ~core:1 ())
    = Some System.Granted);
  check "writer status CAS'd to Aborted" true
    (status_of rig ~core:2 = (0, Status.Aborted));
  let entry = Locktable.entry (Dtm.locks rig.server) 9 in
  check "writer revoked" true (entry.Locktable.writer = None)

(* WAW between two writers. *)
let test_waw () =
  let rig = make_rig () in
  set_status rig ~core:1 ~attempt:0 Status.Pending;
  set_status rig ~core:2 ~attempt:0 Status.Pending;
  check "first writer" true
    (submit rig ~core:1 (System.Write_locks [ 3 ]) ~m:(meta rig ~core:1 ())
    = Some System.Granted);
  check "second writer loses WAW" true
    (submit rig ~core:2 (System.Write_locks [ 3 ]) ~m:(meta rig ~core:2 ())
    = Some (System.Conflicted Waw))

(* WAR: the writer must beat every reader; winning aborts them all. *)
let test_war_aborts_all_readers () =
  let rig = make_rig () in
  List.iter (fun c -> set_status rig ~core:c ~attempt:0 Status.Pending) [ 1; 2; 3 ];
  check "reader 2" true
    (submit rig ~core:2 (System.Read_lock 5)
       ~m:(meta rig ~core:2 ~effective:9000.0 ())
    = Some System.Granted);
  check "reader 3" true
    (submit rig ~core:3 (System.Read_lock 5)
       ~m:(meta rig ~core:3 ~effective:9000.0 ())
    = Some System.Granted);
  check "writer wins WAR" true
    (submit rig ~core:1 (System.Write_locks [ 5 ]) ~m:(meta rig ~core:1 ())
    = Some System.Granted);
  check "reader 2 aborted" true (status_of rig ~core:2 = (0, Status.Aborted));
  check "reader 3 aborted" true (status_of rig ~core:3 = (0, Status.Aborted));
  let entry = Locktable.entry (Dtm.locks rig.server) 5 in
  check_int "no readers left" 0 (List.length entry.Locktable.readers);
  check "writer installed" true (entry.Locktable.writer <> None)

(* A committing enemy cannot be aborted: the requester loses even with
   higher priority. *)
let test_committing_enemy_wins () =
  let rig = make_rig () in
  set_status rig ~core:1 ~attempt:0 Status.Pending;
  set_status rig ~core:2 ~attempt:0 Status.Pending;
  check "writer granted" true
    (submit rig ~core:2 (System.Write_locks [ 4 ])
       ~m:(meta rig ~core:2 ~effective:9000.0 ())
    = Some System.Granted);
  (* Enemy reaches its commit point. *)
  set_status rig ~core:2 ~attempt:0 Status.Committing;
  check "even a high-priority reader loses" true
    (submit rig ~core:1 (System.Read_lock 4) ~m:(meta rig ~core:1 ())
    = Some (System.Conflicted Raw));
  check "enemy still committing" true (status_of rig ~core:2 = (0, Status.Committing))

(* A stale enemy (already on a newer attempt) is revoked silently. *)
let test_stale_enemy_revoked () =
  let rig = make_rig () in
  set_status rig ~core:1 ~attempt:0 Status.Pending;
  check "writer granted" true
    (submit rig ~core:2 (System.Write_locks [ 6 ])
       ~m:(meta rig ~core:2 ~effective:9000.0 ())
    = Some System.Granted);
  (* The writer aborted itself and moved on; its release is "still in
     flight". *)
  set_status rig ~core:2 ~attempt:3 Status.Pending;
  check "requester granted over stale entry" true
    (submit rig ~core:1 (System.Read_lock 6) ~m:(meta rig ~core:1 ())
    = Some System.Granted);
  check "stale enemy NOT aborted" true (status_of rig ~core:2 = (3, Status.Pending))

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

let suite =
  [
    ("dtm: read grant and attempt-checked release", `Quick, test_read_grant_and_release);
    ("dtm: readers share", `Quick, test_multiple_readers_share);
    ("dtm: RAW requester loses", `Quick, test_raw_requester_loses);
    ("dtm: RAW enemy aborted via status CAS", `Quick, test_raw_enemy_aborted);
    ("dtm: WAW", `Quick, test_waw);
    ("dtm: WAR aborts all readers", `Quick, test_war_aborts_all_readers);
    ("dtm: committing enemy is safe", `Quick, test_committing_enemy_wins);
    ("dtm: stale enemy revoked silently", `Quick, test_stale_enemy_revoked);
    ("dtm: batch rollback on conflict", `Quick, test_batch_rollback);
    ("dtm: no self-conflict", `Quick, test_no_self_conflict);
    ("dtm: no-CM aborts the detector", `Quick, test_nocm_always_requester);
  ]
