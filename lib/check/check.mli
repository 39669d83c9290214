(** Checker orchestration.

    [run iter] makes a single pass over the event stream (feeding the
    history builder, whose closing attempts feed the liveness monitor
    ({!Liveness}), the lockset shadow, the crash set and the
    horizon), then runs the serializability + opacity oracle
    ({!Serial}) over the assembled history. The stream comes from a live {!Collector}
    ([run (Collector.iter c)]), a {!Histlog} file, or a list
    ({!run_list}). For the online bounded-memory checker see
    {!Stream}, which renders this driver's result too. *)

type result = {
  history : History.t;
  serial : Serial.report;
  lockset : Lockset.report;
  liveness : Liveness.report;
}

(** [stuck_after_ns] arms the liveness monitor's wedge detection
    (see {!Liveness.finish}; default [infinity], off); crashed cores and the horizon are
    derived from the event stream itself. [opacity] (default [true])
    snapshot-checks aborted and pre-publish-truncated attempts. The
    iterator is invoked exactly once. *)
val run :
  ?liveness_budget:int ->
  ?stuck_after_ns:float ->
  ?opacity:bool ->
  ((float -> Tm2c_core.Event.t -> unit) -> unit) ->
  result

(** Adapt an in-memory [(time, event)] list to the iterator shape the
    single-pass checkers consume. *)
val iter_of_list :
  (float * Tm2c_core.Event.t) list -> (float -> Tm2c_core.Event.t -> unit) -> unit

(** {!run} over an in-memory [(time, event)] list. *)
val run_list :
  ?liveness_budget:int ->
  ?stuck_after_ns:float ->
  ?opacity:bool ->
  (float * Tm2c_core.Event.t) list ->
  result

(** The streaming checker's verdict and witness of a result, so both
    drivers compare ({!Stream.equal}) and render alike. A cycle's
    hops are labelled by their index in [serial.txns]. *)
val verdict : result -> Stream.verdict

val witness : result -> Stream.witness

val n_failures : result -> int

val passed : result -> bool

(** {!Stream.report} of {!verdict} and {!witness}. *)
val report_string : result -> string
