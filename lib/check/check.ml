(* Checker orchestration: reconstruct the history, run every checker,
   and render a human-readable verdict plus (on failure) a witness.

   [run] consumes the event stream through an iterator in a single
   pass — the history builder (whose closing attempts feed the
   liveness monitor), the lockset shadow, the crash set and the
   horizon are all fed per event — then runs the serializability/
   opacity oracle over the assembled history. For the online
   (bounded-memory) form see {!Stream}. *)

type result = {
  history : History.t;
  serial : Serial.report;
  lockset : Lockset.report;
  liveness : Liveness.report;
}

let default_liveness_budget = 1000

let run ?(liveness_budget = default_liveness_budget)
    ?(stuck_after_ns = infinity) ?(opacity = true) iter =
  let lv = Liveness.create ~budget:liveness_budget in
  let hb = History.builder ~on_close:(Liveness.close lv) () in
  let ls = Lockset.create () in
  (* Crash-stopped cores are exempt from wedge detection (their open
     attempt is the crash); the horizon is the last traced instant,
     which bounds how long any attempt can have hung. *)
  let crashed = ref [] in
  let horizon = ref 0.0 in
  iter (fun time ev ->
      History.feed hb time ev;
      Lockset.feed ls time ev;
      if time > !horizon then horizon := time;
      match ev with
      | Tm2c_core.Event.Core_crashed { core; _ } -> crashed := core :: !crashed
      | _ -> ());
  let history = History.finish hb in
  {
    history;
    serial = Serial.analyze ~opacity history;
    lockset = Lockset.finish ls;
    liveness =
      Liveness.finish lv ~horizon:!horizon ~crashed:!crashed ~stuck_after_ns;
  }

let iter_of_list events f = List.iter (fun (t, e) -> f t e) events

let run_list ?liveness_budget ?stuck_after_ns ?opacity events =
  run ?liveness_budget ?stuck_after_ns ?opacity (iter_of_list events)

let n_failures r =
  List.length r.history.History.anomalies
  + List.length r.serial.Serial.corruption
  + (match r.serial.Serial.cycle with Some _ -> 1 | None -> 0)
  + List.length r.serial.Serial.opacity
  + List.length r.lockset.Lockset.violations
  + List.length r.liveness.Liveness.violations
  + List.length r.liveness.Liveness.stuck

let passed r = n_failures r = 0

let pp_summary fmt r =
  let committed, aborted, unfinished = History.count_outcomes r.history in
  let status ok = if ok then "OK  " else "FAIL" in
  Format.fprintf fmt
    "history  %s  %d events, %d attempts (%d committed, %d aborted, %d \
     unfinished), %d anomalies@."
    (status (r.history.History.anomalies = []))
    r.history.History.n_events
    (List.length r.history.History.attempts)
    committed aborted unfinished
    (List.length r.history.History.anomalies);
  Format.fprintf fmt
    "serial   %s  %d txns, %d reads checked (%d elastic skipped), %d initial \
     bindings, %d corrupt, %s, %d/%d attempts opaque@."
    (status (Serial.ok r.serial))
    (Array.length r.serial.Serial.txns)
    r.serial.Serial.n_reads_checked r.serial.Serial.n_reads_skipped
    r.serial.Serial.n_initial_bound
    (List.length r.serial.Serial.corruption)
    (match r.serial.Serial.cycle with
    | None -> "acyclic"
    | Some c -> Printf.sprintf "CYCLE of %d txns" (List.length c.Serial.c_txns))
    (r.serial.Serial.n_opacity_checked - List.length r.serial.Serial.opacity)
    r.serial.Serial.n_opacity_checked;
  Format.fprintf fmt "lockset  %s  %d grants replayed, %d violations@."
    (status (Lockset.ok r.lockset))
    r.lockset.Lockset.n_grants
    (List.length r.lockset.Lockset.violations);
  Format.fprintf fmt "liveness %s  max abort chain %s, budget %d, %d stuck@."
    (status (Liveness.ok r.liveness))
    (match r.liveness.Liveness.max_chain with
    | None -> "0"
    | Some ch -> Printf.sprintf "%d (core %d)" ch.Liveness.ch_len ch.Liveness.ch_core)
    r.liveness.Liveness.budget
    (List.length r.liveness.Liveness.stuck)

let pp_witness fmt r =
  let label i =
    let a = r.serial.Serial.txns.(i) in
    Serial.txn_label i ~core:a.History.a_core ~attempt:a.History.a_number
      ~published:a.History.a_publish_time
  in
  History.pp_anomalies fmt r.history.History.anomalies;
  Serial.pp_corruption fmt r.serial.Serial.corruption;
  Option.iter
    (fun c -> Serial.pp_cycle ~label fmt c.Serial.c_edges)
    r.serial.Serial.cycle;
  Serial.pp_opacity fmt r.serial.Serial.opacity;
  Lockset.pp_witness fmt r.lockset;
  Liveness.pp_witness fmt r.liveness

let report_string r =
  Format.asprintf "%a%a" pp_summary r pp_witness r
