(** Streaming flight recorder: bounded-memory metrics snapshots on a
    simulated-time cadence.

    Every [window_ns] of virtual time the recorder assembles one
    snapshot block — windowed deltas of the always-on counters,
    windowed and cumulative latency quantiles ({!Tm2c_engine.Sketch}),
    per-phase latency merged across cores, per-DS-partition service
    gauges, the top-K busiest NoC links and top-K abort-blame pairs —
    emits it through [out] in an OpenMetrics-style text format, and
    rolls every baseline. One six-value row per window is retained
    (48 B: the time series of {!series}); everything else is constant
    in run length.

    Producers keep writing their one cumulative counter or sketch; the
    recorder reads deltas against private baselines. Wire it up with
    [Runtime.enable_recorder], which also routes trace events into
    {!record_event} through the trace's second tap. *)

type t

(** [create ~env ~window_ns ?out ~servers ()] — [out] receives one
    complete text block per window (omit it to keep only the in-memory
    aggregates for the JSON export); [servers] supplies the live DTM
    servers at each tick. The per-window link and abort-blame listings
    hold the top 8 entries each. *)
val create :
  env:System.env ->
  window_ns:float ->
  ?out:(string -> unit) ->
  servers:(unit -> Dtm.server list) ->
  unit ->
  t

(** Install the reader for the checker sink's high-water mark
    (defaults to a constant 0 when no collector is attached). *)
val set_sink_high_water : t -> (unit -> int) -> unit

(** Count one trace event (the [Trace.set_tap] target). Counts stay 0
    while tracing is disabled: the recorder never forces tracing on. *)
val record_event : t -> Event.t -> unit

(** Baseline all counters and install the recurring snapshot tick (a
    [Sim.every] tick, so it never keeps a drained run alive). Call
    before [Runtime.run]. *)
val start : t -> unit

(** Emit the final partial window and a ["# eof"] marker, then stop.
    Idempotent; a no-op if {!start} was never called. *)
val finish : t -> unit

val window_ns : t -> float

(** Windows emitted so far (including the final partial one). *)
val n_windows : t -> int

type kind = Cumulative | Gauge

(** Full windows so far: the final partial window that {!finish}
    emits has no row. *)
val series_length : t -> int

(** End time of each full window, oldest first. *)
val series_times : t -> float array

(** The per-window rows as columns, one value per full window oldest
    first: [ops], [commits], [aborts], [messages] ([Cumulative]:
    windowed deltas), then [queue_depth_mean] (mean pending input over
    the DTM cores) and [link_msgs_max] (the busiest link's windowed
    message count), both [Gauge]. An event on a window edge counts in
    exactly one window. *)
val series : t -> (string * kind * float array) list

(** [(name, total since start, sum of emitted windowed deltas)] per
    counter. After {!finish} the two figures are equal — the
    telescoping invariant validate_json re-checks. *)
val counter_totals : t -> (string * float * float) list

(** The cumulative latency sketches tracked by the recorder. *)
val sketch_totals : t -> (string * Tm2c_engine.Sketch.t) list

(** Cumulative per-phase commit-latency sketches, merged across cores
    (empty sketches while profiling is disabled). *)
val phase_sketches : t -> (string * Tm2c_engine.Sketch.t) list

(** Cumulative trace-event counts per constructor label. *)
val event_totals : t -> (string * int) list
