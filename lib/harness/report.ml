(* Serialize one run — workload result plus the observability metrics
   gathered by the runtime — as JSON. This is the export layer behind
   [bench/main.exe <id> --json out.json]. *)

open Tm2c_core
open Tm2c_noc
open Tm2c_engine

let config_json (cfg : Runtime.config) =
  Json.Obj
    [
      ("platform", Json.String cfg.Runtime.platform.Platform.name);
      ("total_cores", Json.Int cfg.Runtime.total_cores);
      ("service_cores", Json.Int cfg.Runtime.service_cores);
      ( "deployment",
        Json.String
          (match cfg.Runtime.deployment with
          | Runtime.Dedicated -> "dedicated"
          | Runtime.Multitask -> "multitask") );
      ("policy", Json.String (Cm.name cfg.Runtime.policy));
      ( "wmode",
        Json.String (match cfg.Runtime.wmode with Tx.Eager -> "eager" | Tx.Lazy -> "lazy") );
      ("batching", Json.Bool cfg.Runtime.batching);
      ("max_skew_ns", Json.Float Runtime.max_skew_ns);
      ("seed", Json.Int cfg.Runtime.seed);
    ]

let result_json (r : Tm2c_apps.Workload.result) =
  let open Tm2c_apps.Workload in
  Json.Obj
    [
      ("ops", Json.Int r.ops);
      ("duration_ms", Json.Float r.duration_ms);
      ("throughput_ops_ms", Json.Float r.throughput_ops_ms);
      ("commits", Json.Int r.commits);
      ("aborts", Json.Int r.aborts);
      (* nan (zero-commit window) serializes as null; the marker makes
         the dead window explicit for consumers. *)
      ("commit_rate", Json.Float r.commit_rate);
      ("no_commits", Json.Bool (r.commits = 0 && r.aborts = 0));
      ("worst_attempts", Json.Int r.worst_attempts);
      ("messages", Json.Int r.messages);
      ("sim_events", Json.Int r.events);
      (* The run was cut off with work still incomplete (v6): a
         horizon-terminated completion run, a window where some core
         never progressed, or an open-loop drain that left admitted
         requests unresolved. *)
      ("horizon_hit", Json.Bool r.horizon_hit);
    ]

let cores_json stats ~n =
  let rows = ref [] in
  for i = n - 1 downto 0 do
    let c = Stats.core stats i in
    if c.Stats.commits + Stats.aborts c + c.Stats.ops > 0 then
      rows :=
        Json.Obj
          [
            ("core", Json.Int i);
            ("commits", Json.Int c.Stats.commits);
            ("aborts", Json.Int (Stats.aborts c));
            ("aborts_raw", Json.Int c.Stats.aborts_raw);
            ("aborts_waw", Json.Int c.Stats.aborts_waw);
            ("aborts_war", Json.Int c.Stats.aborts_war);
            ("aborts_status", Json.Int c.Stats.aborts_status);
            ("ops", Json.Int c.Stats.ops);
            ("tx_reads", Json.Int c.Stats.tx_reads);
            ("tx_writes", Json.Int c.Stats.tx_writes);
            ("max_attempts", Json.Int c.Stats.max_attempts);
          ]
        :: !rows
  done;
  Json.List !rows

(* Quantile-sketch summary (schema v5: sketches replace the
   bucket-edge histogram percentiles everywhere; [rel_error] documents
   the estimates' guaranteed relative-error bound and [p999] joins the
   quantile ladder). [buckets] (off for the per-phase sketches, which
   would dominate the export) adds the raw (upper edge, count) rows. *)
let sketch_json ?(buckets = false) sk =
  Json.Obj
    ([
       ("count", Json.Int (Sketch.count sk));
       ("sum", Json.Float (Sketch.sum sk));
       ("mean", Json.Float (Sketch.mean sk));
       ("min", Json.Float (Sketch.min_value sk));
       ("max", Json.Float (Sketch.max_value sk));
       ("p50", Json.Float (Sketch.percentile sk 50.0));
       ("p90", Json.Float (Sketch.percentile sk 90.0));
       ("p99", Json.Float (Sketch.percentile sk 99.0));
       ("p999", Json.Float (Sketch.percentile sk 99.9));
       ("rel_error", Json.Float (Sketch.rel_error sk));
     ]
    @
    if buckets then
      [
        ( "buckets",
          Json.List
            (List.map
               (fun (upper, n) -> Json.List [ Json.Float upper; Json.Int n ])
               (Sketch.buckets sk)) );
      ]
    else [])

let network_json net =
  let m = Network.metrics net in
  Json.Obj
    [
      ("sent", Json.Int (Network.sent net));
      ("received", Json.Int (Network.received net));
      ("poll_scans", Json.Int m.Network.poll_scans);
      ("poll_scan_ns", Json.Float m.Network.poll_scan_ns);
      ("latency_ns", sketch_json ~buckets:true m.Network.latency);
      ( "top_links",
        Json.List
          (List.map
             (fun (src, dst, n) ->
               Json.List [ Json.Int src; Json.Int dst; Json.Int n ])
             (Network.top_links net)) );
    ]

let dtm_json servers =
  Json.List
    (List.map
       (fun s ->
         let qmean, qmax = Dtm.queue_depth_stats s in
         let omean, omax = Dtm.occupancy_stats s in
         Json.Obj
           [
             ("core", Json.Int (Dtm.core s));
             ("served", Json.Int (Dtm.served s));
             ("busy_ns", Json.Float (Dtm.busy_ns s));
             ("resp_cache", Json.Int (Dtm.resp_cache_size s));
             ("lease_reclaims", Json.Int (Dtm.lease_reclaims s));
             ( "queue_depth",
               Json.Obj [ ("mean", Json.Float qmean); ("max", Json.Int qmax) ] );
             ( "occupancy",
               Json.Obj [ ("mean", Json.Float omean); ("max", Json.Int omax) ] );
           ])
       servers)

(* [status] is the status-CAS abort count (remote revocations noticed
   at the victim), summed over cores: those aborts have no CM
   arbitration record in [obs], so they surface under the "STATUS"
   key — the same label [Event.conflict_opt_to_string] renders for
   the [None] cause. *)
let aborts_json ~policy ~status obs =
  Json.Obj
    [
      ("policy", Json.String (Cm.name policy));
      ("total", Json.Int (Obs.total obs));
      ( "by_conflict",
        Json.Obj
          (List.map
             (fun (c, n) -> (Types.conflict_to_string c, Json.Int n))
             (Obs.by_conflict obs)
          @ [ ("STATUS", Json.Int status) ]) );
      ( "causality",
        Json.List
          (List.map
             (fun ({ Obs.winner; victim; conflict }, count, addr) ->
               Json.Obj
                 [
                   ("winner", Json.Int winner);
                   ("victim", Json.Int victim);
                   ("conflict", Json.String (Types.conflict_to_string conflict));
                   ("count", Json.Int count);
                   ("last_addr", Json.Int addr);
                 ])
             (Obs.dump obs)) );
    ]

(* One Span aggregate (committed or aborted attempts) as a per-core
   list. The exported invariant — checked by bench/validate_json — is
   that on the committed side each core's per-phase sums add up to
   total_attempt_ns (1e-6 relative): the instrumentation charges every
   telescoping segment of the attempt to exactly one phase. *)
let span_json span =
  let rows = ref [] in
  for core = Span.n_cores span - 1 downto 0 do
    if Span.attempts span ~core > 0 then
      rows :=
        Json.Obj
          [
            ("core", Json.Int core);
            ("attempts", Json.Int (Span.attempts span ~core));
            ("total_attempt_ns", Json.Float (Span.attempt_ns span ~core));
            ("phase_sum_ns", Json.Float (Span.phase_total span ~core));
            ( "phases",
              Json.Obj
                (Array.to_list
                   (Array.mapi
                      (fun phase name ->
                        ( name,
                          Json.Obj
                            [
                              ("sum", Json.Float (Span.sum span ~core ~phase));
                              ("sketch", sketch_json (Span.sketch span ~core ~phase));
                            ] ))
                      (Span.phases span))) );
          ]
        :: !rows
  done;
  Json.List !rows

(* Per-attempt phase attribution, committed and aborted sides;
   [enabled: false] with empty core lists when profiling was off. *)
let phases_json t =
  let committed = Runtime.span_commit t in
  Json.Obj
    [
      ("enabled", Json.Bool (Span.enabled committed));
      ( "names",
        Json.List
          (Array.to_list (Array.map (fun n -> Json.String n) (Span.phases committed)))
      );
      ("committed", span_json committed);
      ("aborted", span_json (Runtime.span_abort t));
    ]

(* The flight recorder's per-window rows: full windows only. *)
let timeseries_json r =
  let float_row a = Json.List (Array.to_list (Array.map (fun v -> Json.Float v) a)) in
  Json.Obj
    [
      ("window_ns", Json.Float (Recorder.window_ns r));
      ("n_windows", Json.Int (Recorder.series_length r));
      ("t_ns", float_row (Recorder.series_times r));
      ( "channels",
        Json.Obj
          (List.map
             (fun (name, kind, values) ->
               ( name,
                 Json.Obj
                   [
                     ( "kind",
                       Json.String
                         (match kind with
                         | Recorder.Cumulative -> "cumulative"
                         | Recorder.Gauge -> "gauge") );
                     ("values", float_row values);
                   ] ))
             (Recorder.series r)) );
    ]

(* Trace-ring status: enabled flag, capacity, events held, the dropped
   (overwritten) count and the checker sink's high-water mark. *)
let trace_json t =
  let tr = Runtime.trace t in
  Json.Obj
    [
      ("enabled", Json.Bool (Trace.enabled tr));
      ("capacity", Json.Int (Trace.capacity tr));
      ("length", Json.Int (Trace.length tr));
      (* Events overwritten because the ring wrapped: nonzero means the
         trace (and any Perfetto export of it) holds only the tail. *)
      ("dropped", Json.Int (Trace.dropped tr));
      (* Peak number of events the attached checker sink (Collector)
         held at once — 0 when no sink was attached (v5). *)
      ("sink_high_water", Json.Int (Runtime.sink_high_water t));
    ]

(* Host-side self-profiler shares (v5): all-zero unless
   [Runtime.enable_self_profile] injected a wall clock before the run. *)
let host_profile_json t =
  Json.Obj
    (Array.to_list
       (Array.map
          (fun (name, seconds, samples) ->
            ( name,
              Json.Obj
                [
                  ("seconds", Json.Float seconds); ("samples", Json.Int samples);
                ] ))
          (Runtime.self_profile t)))

(* Flight-recorder final snapshot (v5). [windowed_sum] of each counter
   equals [total] after [finish] — the telescoping invariant
   bench/validate_json re-checks, witnessing that the windowed stream
   lost nothing. *)
let metrics_json t r =
  Json.Obj
    [
      ("window_ns", Json.Float (Recorder.window_ns r));
      ("n_windows", Json.Int (Recorder.n_windows r));
      ( "counters",
        Json.Obj
          (List.map
             (fun (name, total, windowed) ->
               ( name,
                 Json.Obj
                   [
                     ("total", Json.Float total);
                     ("windowed_sum", Json.Float windowed);
                   ] ))
             (Recorder.counter_totals r)) );
      ( "sketches",
        Json.Obj
          (List.map
             (fun (name, sk) -> (name, sketch_json sk))
             (Recorder.sketch_totals r)) );
      ( "phase_sketches",
        Json.Obj
          (List.filter_map
             (fun (name, sk) ->
               if Sketch.count sk > 0 then Some (name, sketch_json sk) else None)
             (Recorder.phase_sketches r)) );
      ( "events",
        Json.Obj
          (List.map
             (fun (name, n) -> (name, Json.Int n))
             (Recorder.event_totals r)) );
      ("host_profile", host_profile_json t);
    ]

(* Fault-injection and hardening accounting (schema v3; v4 adds the
   reorder/partition/server-crash injections and the replication
   counters). [injected] is the headline count — every fault the plan
   actually fired (drops + duplications + delay spikes + reorders +
   partition holds + crashes + server crashes) — next to the hardening
   reactions it provoked ([resends], [absorbed], [leases_reclaimed],
   [failovers], [stale_rejections]). Always present, all-zero on an
   un-faulted run, so consumers can diff faulted and clean runs
   without a shape change. *)
let faults_json t =
  let f = Runtime.faults t in
  let c = Fault.counters f in
  let env = Runtime.env t in
  Json.Obj
    [
      ("plan", Json.String (Fault.to_spec (Fault.plan f)));
      ("injected", Json.Int (Fault.injected f));
      ("dropped", Json.Int c.Fault.dropped);
      ("duplicated", Json.Int c.Fault.duplicated);
      ("delayed", Json.Int c.Fault.delayed);
      ("reordered", Json.Int c.Fault.reordered);
      ("partitioned", Json.Int c.Fault.partitioned);
      ("crashes", Json.Int c.Fault.crashes);
      ("server_crashes", Json.Int c.Fault.server_crashes);
      ("resends", Json.Int c.Fault.resends);
      ("absorbed", Json.Int c.Fault.absorbed);
      ("leases_reclaimed", Json.Int c.Fault.leases_reclaimed);
      ("replicas", Json.Int (Runtime.replicas t));
      ("replicated", Json.Int c.Fault.replicated);
      ("failovers", Json.Int c.Fault.failovers);
      ("stale_rejections", Json.Int c.Fault.stale_rejections);
      ("cache_evicted", Json.Int c.Fault.cache_evicted);
      ("timeout_ns", Json.Float env.System.req_timeout_ns);
      ("lease_ns", Json.Float env.System.lease_ns);
      ( "crashed_cores",
        Json.List
          (List.init (Platform.n_cores (Runtime.config t).Runtime.platform) Fun.id
          |> List.filter (fun core -> Fault.is_crashed f ~core)
          |> List.map (fun core -> Json.Int core)) );
    ]

(* Open-loop overload accounting (schema v6): always present and
   all-zero (policy "none") on closed-loop runs, mirroring the faults
   section, so consumers can diff open- and closed-loop runs without a
   shape change. Invariants re-checked by bench/validate_json:
   offered = admitted + shed; executed + expired <= admitted;
   goodput <= completed <= executed. *)
let openloop_json t =
  let env = Runtime.env t in
  let o = env.System.overload in
  Json.Obj
    [
      ( "policy",
        Json.String
          (match Runtime.admission t with
          | Some a -> Admission.policy_name (Admission.policy a)
          | None -> "none") );
      ("offered", Json.Int o.System.ol_offered);
      ("admitted", Json.Int o.System.ol_admitted);
      ("shed", Json.Int o.System.ol_shed);
      ("expired", Json.Int o.System.ol_expired);
      ("executed", Json.Int o.System.ol_executed);
      ("completed", Json.Int o.System.ol_completed);
      ("goodput", Json.Int o.System.ol_goodput);
      ("wasted", Json.Int o.System.ol_wasted);
      ("retries", Json.Int o.System.ol_retries);
      ("retry_exhausted", Json.Int o.System.ol_retry_exhausted);
      ("queue_peak", Json.Int o.System.ol_queue_peak);
      ("e2e_latency_ns", sketch_json env.System.e2e_lat);
    ]

let run_json t (r : Tm2c_apps.Workload.result) =
  let cfg = Runtime.config t in
  let env = Runtime.env t in
  Json.Obj
    ([
       ("config", config_json cfg);
       ("result", result_json r);
       ( "cores",
         cores_json (Runtime.stats t) ~n:cfg.Runtime.total_cores
       );
       ("network", network_json env.System.net);
       ("dtm", dtm_json (Runtime.servers t));
       ( "aborts",
         let stats = Runtime.stats t in
         let status = ref 0 in
         for i = 0 to cfg.Runtime.total_cores - 1 do
           status := !status + (Stats.core stats i).Stats.aborts_status
         done;
         aborts_json ~policy:cfg.Runtime.policy ~status:!status
           (Runtime.obs t) );
       ("faults", faults_json t);
       ("openloop", openloop_json t);
       (* The watchdog cut this run short of its horizon (v4). *)
       ("wedged", Json.Bool (Runtime.wedged t));
       ("phases", phases_json t);
       ("trace", trace_json t);
     ]
    @
    match Runtime.recorder t with
    | Some r -> [ ("metrics", metrics_json t r); ("timeseries", timeseries_json r) ]
    | None -> [])
