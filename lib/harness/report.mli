(** JSON export of one run: the workload result plus the runtime's
    observability metrics — per-core commit/abort counters, network
    message totals and latency quantiles, lock-service queue-depth and
    occupancy stats, per-conflict abort causality, and (schema v5) the
    flight recorder's final snapshot. *)

(** [run_json t r] — the full self-describing record for one run on
    runtime [t] that produced result [r]. Includes ["metrics"] and
    ["timeseries"] sections when the flight recorder was enabled. *)
val run_json : Tm2c_core.Runtime.t -> Tm2c_apps.Workload.result -> Json.t
