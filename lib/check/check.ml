(* Checker orchestration: the batch reference driver.

   [run] consumes the event stream through an iterator in a single
   pass — the history builder (whose closing attempts feed the
   liveness monitor, and which counts outcomes and records the horizon
   and crashed cores) and the lockset shadow are fed per event — then
   replays the builder's reads and closes through the
   serializability/opacity oracle over the complete history, and
   closes the run as the streaming checker does. For the online
   (bounded-memory) form see {!Stream}. *)

type result = { history : History.t; verdict : Stream.verdict; witness : Stream.witness }

let run ?(liveness_budget = Liveness.default_budget) ?(stuck_after_ns = infinity) iter =
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
  iter (fun time ev ->
      History.feed hb time ev;
      Lockset.feed ls time ev);
  let history = History.finish hb in
  let tally, cycle = Serial.analyze ~steps:(List.rev !steps) history in
  let verdict, witness =
    Stream.close_run history tally ~cycle ls lv ~stuck_after_ns
  in
  { history; verdict; witness }

let iter_of_list events f = List.iter (fun (t, e) -> f t e) events

let run_list ?liveness_budget ?stuck_after_ns events =
  run ?liveness_budget ?stuck_after_ns (iter_of_list events)

let n_failures r = Stream.n_failures r.verdict

let passed r = n_failures r = 0

let report_string r = Stream.report r.verdict r.witness
