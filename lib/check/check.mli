(** Checker orchestration.

    [run iter] makes a single pass over the event stream (feeding the
    history builder, whose closing attempts feed the liveness monitor
    ({!Liveness}), the lockset shadow, the crash set and the
    horizon), then runs the serializability + opacity oracle
    ({!Serial}) over the assembled history. The stream comes from a live {!Collector}
    ([run (Collector.iter c)]), a {!Histlog} file, or a list
    ({!run_list}). For the online bounded-memory checker see
    {!Stream}. *)

type result = {
  history : History.t;
  serial : Serial.report;
  lockset : Lockset.report;
  liveness : Liveness.report;
}

val default_liveness_budget : int

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

(** Total violations across all checkers (history anomalies count). *)
val n_failures : result -> int

val passed : result -> bool

(** One line per checker: OK/FAIL plus headline numbers. *)
val pp_summary : Format.formatter -> result -> unit

(** Full violation detail, each checker's own witness section in
    turn (the streaming report composes the same sections): history
    anomalies, value corruption, for a conflict-graph cycle the
    minimal witness (offending transactions and, per hop, the edge
    kind, address, and inducing sequence point), opacity witnesses,
    lock violations, abort chains and wedged cores. Empty when
    {!passed}. *)
val pp_witness : Format.formatter -> result -> unit

(** Summary followed by witness, as a string. *)
val report_string : result -> string
