(** Chrome trace_event ("Perfetto") timeline export of the event-trace
    ring: one track per core, transaction-attempt and request-service
    slices, one instant per other event (named from [Event.describe]'s
    table, the non-actor fields as args), and flow arrows linking each lock request
    to the DTM service that handled it. The output opens directly in
    ui.perfetto.dev or chrome://tracing. *)

(** [export ?app ?dtm trace] converts the ring to a trace_event JSON
    document. [app] and [dtm] name the tracks ("app core N" / "dtm
    core N"); cores in neither list are labelled "core N" (e.g. the
    multitasking deployment, where every core is both). Timestamps are
    virtual microseconds; slices whose begin event was overwritten by
    the ring are dropped, and flow arrows are only emitted when both
    endpoints survived. [traceEvents] is a {!Json.Seq} rendered item by
    item from data captured at export: clearing or refilling the ring
    afterwards leaves the printed document unchanged. *)
val export :
  ?app:Tm2c_core.Types.core_id array ->
  ?dtm:Tm2c_core.Types.core_id array ->
  Tm2c_core.Event.t Tm2c_engine.Trace.t ->
  Json.t

(** Structural check of a trace_event document: every event is an
    object with a phase; non-metadata events carry numeric ts/pid/tid
    with ts >= 0; complete ("X") events have non-negative durations;
    per-track timestamps are non-decreasing in file order; and every
    flow id pairs starts with finishes. Returns the first violation. *)
val validate : Json.t -> (unit, string) result

val validate_file : string -> (unit, string) result
