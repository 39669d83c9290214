(* Checker orchestration: reconstruct the history, run every checker,
   and project the result onto the streaming checker's verdict and
   witness, which render it.

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

let run ?(liveness_budget = Liveness.default_budget)
    ?(stuck_after_ns = infinity) ?(opacity = true) iter =
  let lv = Liveness.create ~budget:liveness_budget in
  (* Reads and closes in trace order, the order the stream judges in. *)
  let steps = ref [] in
  let hb =
    History.builder
      ~on_read:(fun a r -> steps := Serial.Read (a, r) :: !steps)
      ~on_close:(fun a ->
        Liveness.close lv a;
        steps := Serial.Close a :: !steps)
      ()
  in
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
    serial = Serial.analyze ~opacity ~steps:(List.rev !steps) history;
    lockset = Lockset.finish ls;
    liveness =
      Liveness.finish lv ~horizon:!horizon ~crashed:!crashed ~stuck_after_ns;
  }

let iter_of_list events f = List.iter (fun (t, e) -> f t e) events

let run_list ?liveness_budget ?stuck_after_ns ?opacity events =
  run ?liveness_budget ?stuck_after_ns ?opacity (iter_of_list events)

let witness r =
  let label i =
    let a = r.serial.Serial.txns.(i) in
    Serial.txn_label i ~core:a.History.a_core ~attempt:a.History.a_number
      ~published:a.History.a_publish_time
  in
  {
    Stream.w_anomalies = r.history.History.anomalies;
    w_corruption = r.serial.Serial.corruption;
    w_cycle = Option.map (fun c -> (c.Serial.c_edges, label)) r.serial.Serial.cycle;
    w_opacity = r.serial.Serial.opacity;
    w_lockset = r.lockset;
    w_liveness = r.liveness;
  }

let verdict r =
  let committed, aborted, unfinished = History.count_outcomes r.history in
  Stream.verdict_of_witness ~events:r.history.History.n_events ~committed ~aborted
    ~unfinished ~reads_checked:r.serial.Serial.n_reads_checked
    ~reads_skipped:r.serial.Serial.n_reads_skipped
    ~opacity_checked:r.serial.Serial.n_opacity_checked (witness r)

let n_failures r = Stream.n_failures (verdict r)

let passed r = n_failures r = 0

let report_string r = Stream.report (verdict r) (witness r)
