(** JSON export of one run: the workload result plus the runtime's
    observability metrics — per-core commit/abort counters, network
    message totals and latency quantiles, lock-service queue-depth and
    occupancy stats, per-conflict abort causality, and (schema v5) the
    flight recorder's final snapshot. *)

val config_json : Tm2c_core.Runtime.config -> Json.t

val result_json : Tm2c_apps.Workload.result -> Json.t

(** Quantile-sketch summary: count/sum/mean/min/max, the
    p50/p90/p99/p999 ladder and the sketch's guaranteed [rel_error];
    [buckets] adds the raw (upper edge, count) rows. *)
val sketch_json : ?buckets:bool -> Tm2c_engine.Sketch.t -> Json.t

(** Per-attempt phase attribution (committed and aborted sides of the
    runtime's {!Tm2c_engine.Span} pair); [enabled: false] with empty
    core lists when profiling was off. *)
val phases_json : Tm2c_core.Runtime.t -> Json.t

(** The flight recorder's per-window rows as a time series (see
    {!Tm2c_core.Recorder.series}): full windows only. *)
val timeseries_json : Tm2c_core.Recorder.t -> Json.t

(** Trace-ring status: enabled flag, capacity, events held, the
    dropped (overwritten) count, and the checker sink's high-water
    mark. *)
val trace_json : Tm2c_core.Runtime.t -> Json.t

(** Host-side self-profiler category shares (all-zero unless
    [Runtime.enable_self_profile] ran). *)
val host_profile_json : Tm2c_core.Runtime.t -> Json.t

(** Flight-recorder final snapshot: windowed-counter totals and
    telescoped sums, latency and per-phase sketches, event counts and
    the host profile. *)
val metrics_json : Tm2c_core.Runtime.t -> Tm2c_core.Recorder.t -> Json.t

(** [run_json t r] — the full self-describing record for one run on
    runtime [t] that produced result [r]. Includes ["metrics"] and
    ["timeseries"] sections when the flight recorder was enabled. *)
val run_json : Tm2c_core.Runtime.t -> Tm2c_apps.Workload.result -> Json.t
