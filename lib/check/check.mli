(** Checker orchestration: the batch reference driver.

    [run iter] makes a single pass over the event stream (feeding the
    history builder, whose closing attempts feed the liveness monitor
    ({!Liveness}), and the lockset shadow), then replays the builder's
    reads and closes through the serializability + opacity oracle
    ({!Serial.analyze}) over the complete history. The stream comes
    from a live {!Collector} ([run (Collector.iter c)]), a {!Histlog}
    file, or a list ({!run_list}). It ends in the streaming checker's
    verdict and witness ({!Stream.close_run}); for the online
    bounded-memory checker see {!Stream}. *)

type result = {
  history : History.t;  (** the retained history *)
  verdict : Stream.verdict;
  witness : Stream.witness;
      (** a cycle's hops are labelled by the transaction's rank in
          publish order, as the stream numbers them *)
}

(** [stuck_after_ns] arms the liveness monitor's wedge detection (see
    {!Liveness.finish}; default [infinity], off); crashed cores and the
    horizon are derived from the event stream itself. The iterator is
    invoked exactly once. *)
val run :
  ?liveness_budget:int ->
  ?stuck_after_ns:float ->
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
  (float * Tm2c_core.Event.t) list ->
  result

(** {!Stream.n_failures} of the verdict. *)
val n_failures : result -> int

val passed : result -> bool

(** {!Stream.report} of the verdict and witness. *)
val report_string : result -> string
