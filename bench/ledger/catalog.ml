(* Every metric the ledger reports, with its unit, direction and kind.
   BENCHMARK.json at the repository root lists the same metrics (the
   smoke self-test checks that the two agree), so this table and that
   file change together.

   Kinds: [Host] numbers are host-time or host-memory measurements,
   reported as the median of the reps with quartiles; [Virtual] numbers
   are simulated results, exact for a given seed, so two runs of one
   commit must agree bit for bit. Simulated time uses the units
   [sim_us] / [sim_ms] to keep it apart from host time. *)

type better = Higher | Lower

type kind = Host | Virtual

type t = {
  name : string;
  unit_ : string;
  better : better;
  kind : kind;
  bound : float;
      (** end-to-end only: share of the parent's median by which the
          metric may worsen before a change counts as a regression *)
  pctl : float;  (** percentile reported (0 when not a percentile) *)
  layer : string;  (** "end_to_end", or the layer a per-layer metric measures *)
  targets : string;
      (** per-layer only: the end-to-end metric, on the workload, that
          this metric should move *)
}

let e2e name unit_ better kind bound =
  { name; unit_; better; kind; bound; pctl = 0.0; layer = "end_to_end"; targets = "" }

(* Every end-to-end metric is defined and nonzero on every workload, and
   moves continuously with the seed: sketch quantiles of commit latency
   sit on bucket midpoints (identical across seeds on some workloads,
   jumping between modes on others), so the end-to-end latency is the
   exact mean and the quantiles are per-layer rows. The abort rate is
   carried as attempts per commit, which stays well-conditioned on the
   open-loop workload's handful of aborts.

   Host bounds are the largest allowed. Host times are calibrated
   (Calib), which keeps the spread (interquartile range over median) of
   ten benchmark runs on ten seeds to 2-7% on a shared 2-vCPU VM, but
   the medians of two such sets can still differ by several percent
   (README.md, "Noise bands"). The peak heap varies with the seed by
   about 7% on the checked workload. Bounds on the virtual metrics cover
   about three times their spread across seeds; two runs of one seed
   must agree exactly (ledger.exe compare). *)
let end_to_end =
  [
    e2e "events_per_s" "events/s" Higher Host 0.25;
    e2e "wall_s" "s" Lower Host 0.25;
    e2e "setup_s" "s" Lower Host 0.25;
    e2e "peak_heap_mb" "MB" Lower Host 0.25;
    e2e "commits_per_vms" "commits/sim_ms" Higher Virtual 0.12;
    e2e "attempts_per_commit" "attempts/commit" Lower Virtual 0.05;
    e2e "msgs_per_commit" "msgs/commit" Lower Virtual 0.12;
    e2e "commit_mean_us" "sim_us" Lower Virtual 0.12;
  ]

let layer_metric ?(pctl = 0.0) layer targets (name, unit_, better, kind) =
  { name; unit_; better; kind; bound = 0.0; pctl; layer; targets }

let group layer targets rows = List.map (layer_metric layer targets) rows

let bank = "bank_scc48"
and mesh = "hashtable_mesh512"
and checked = "hashtable_scc48_checked"
and openloop = "openloop_burst_scc16"

let on m w = m ^ " on " ^ w

let per_layer =
  List.concat
    [
      group "setup" (on "setup_s" mesh)
        [
          ("setup.runtime_create_s", "s", Lower, Host);
          ("setup.app_build_s", "s", Lower, Host);
        ];
      group "engine" (on "events_per_s" bank ^ "; " ^ on "events_per_s" openloop)
        [
          ("engine.wheel.pops", "count", Lower, Virtual);
          ("engine.wheel.ns_per_pop", "ns", Lower, Host);
          ("engine.callback.calls", "count", Lower, Virtual);
          ("engine.callback.ns_per_call", "ns", Lower, Host);
        ];
      group "engine" (on "events_per_s" bank)
        [
          ("engine.fiber.resumes", "count", Lower, Virtual);
          ("engine.fiber.ns_per_resume", "ns", Lower, Host);
          ("engine.mailbox.deliveries", "count", Lower, Virtual);
          ("engine.mailbox.ns_per_delivery", "ns", Lower, Host);
          ("engine.elided_pct", "%", Higher, Virtual);
          ("engine.profile_coverage_pct", "%", Higher, Host);
        ];
      group "engine" (on "wall_s" checked) [ ("engine.self_s", "s", Lower, Host) ];
      group "noc" (on "events_per_s" mesh)
        [
          ("noc.network.sends", "count", Lower, Virtual);
          ("noc.network.ns_per_send", "ns", Lower, Host);
        ];
      [
        layer_metric ~pctl:50.0 "noc" (on "commit_mean_us" mesh)
          ("noc.network.lat_p50_us", "sim_us", Lower, Virtual);
        layer_metric ~pctl:99.0 "noc" (on "tm2c.tx.commit_p999_us" mesh)
          ("noc.network.lat_p99_us", "sim_us", Lower, Virtual);
      ];
      group "noc" (on "tm2c.tx.commit_p999_us" mesh)
        [ ("noc.network.hot_link_pct", "%", Lower, Virtual) ];
      group "tm2c.dtm" (on "events_per_s" bank)
        [
          ("tm2c.dtm.requests", "count", Lower, Virtual);
          ("tm2c.dtm.ns_per_request", "ns", Lower, Host);
        ];
      group "tm2c.dtm" "tm2c.tx.commit_p999_us and tm2c.admission.e2e_p999_us"
        [
          ("tm2c.dtm.busy_pct", "%", Lower, Virtual);
          ("tm2c.dtm.queue_depth_mean", "requests", Lower, Virtual);
          ("tm2c.dtm.queue_depth_max", "requests", Lower, Virtual);
        ];
      group "tm2c.dtm" "msgs_per_commit"
        [ ("tm2c.dtm.requests_per_commit", "requests/commit", Lower, Virtual) ];
      [
        layer_metric ~pctl:50.0 "tm2c.tx" "commit_mean_us"
          ("tm2c.tx.commit_p50_us", "sim_us", Lower, Virtual);
        layer_metric ~pctl:99.9 "tm2c.tx" "commit_mean_us"
          ("tm2c.tx.commit_p999_us", "sim_us", Lower, Virtual);
      ];
      group "tm2c.tx" "commit_mean_us"
        (List.map
           (fun phase -> ("tm2c.tx.phase." ^ phase ^ "_us", "sim_us", Lower, Virtual))
           (Array.to_list Tm2c_core.Phase.names));
      group "tm2c.tx" (on "attempts_per_commit" bank)
        [ ("tm2c.tx.abort_pct", "%", Lower, Virtual) ];
      group "tm2c.cm" (on "attempts_per_commit" bank)
        [
          ("tm2c.cm.aborts.raw", "count", Lower, Virtual);
          ("tm2c.cm.aborts.waw", "count", Lower, Virtual);
          ("tm2c.cm.aborts.war", "count", Lower, Virtual);
        ];
      group "tm2c.admission"
        (on "tm2c.admission.miss_pct and tm2c.admission.goodput_per_vms" openloop)
        [
          ("tm2c.admission.shed", "count", Lower, Virtual);
          ("tm2c.admission.expired", "count", Lower, Virtual);
          ("tm2c.admission.retries", "count", Lower, Virtual);
          ("tm2c.admission.retry_exhausted", "count", Lower, Virtual);
          ("tm2c.admission.wasted", "count", Lower, Virtual);
          ("tm2c.admission.queue_peak", "requests", Lower, Virtual);
        ];
      (* The open-loop workload's own end-to-end results. They are not
         end-to-end rows because they are zero on the closed-loop
         workloads, which have no admission layer. *)
      group "tm2c.admission" ("end-to-end result of " ^ openloop)
        [
          ("tm2c.admission.goodput_per_vms", "good/sim_ms", Higher, Virtual);
          ("tm2c.admission.miss_pct", "%", Lower, Virtual);
        ];
      [
        layer_metric ~pctl:50.0 "tm2c.admission" ("end-to-end result of " ^ openloop)
          ("tm2c.admission.e2e_p50_us", "sim_us", Lower, Virtual);
        layer_metric ~pctl:99.9 "tm2c.admission" ("end-to-end result of " ^ openloop)
          ("tm2c.admission.e2e_p999_us", "sim_us", Lower, Virtual);
      ];
      group "tm2c.recorder" (on "wall_s" checked)
        [
          ("tm2c.recorder.ns_per_event", "ns", Lower, Host);
          ("tm2c.recorder.windows", "count", Lower, Virtual);
        ];
      group "check.stream" (on "wall_s and peak_heap_mb" checked)
        [
          ("check.stream.events", "count", Lower, Virtual);
          ("check.stream.ns_per_event", "ns", Lower, Host);
          ("check.stream.peak_nodes", "nodes", Lower, Virtual);
          ("check.stream.finish_s", "s", Lower, Host);
        ];
      group "check.stream" ("correctness of " ^ checked ^ ": must stay 0")
        [ ("check.stream.failures", "count", Lower, Virtual) ];
      group "check.histlog" (on "wall_s" checked)
        [
          ("check.histlog.ns_per_event", "ns", Lower, Host);
          ("check.histlog.bytes_per_event", "bytes", Lower, Virtual);
        ];
      group "harness.perfetto" (on "wall_s" checked)
        [
          ("harness.perfetto.export_s", "s", Lower, Host);
          ("harness.perfetto.ring_events", "count", Lower, Virtual);
        ];
      group "trace" "every workload: cost of the traced run itself"
        [ ("trace.overhead_ratio", "ratio", Lower, Host) ];
      (* As measured, not calibrated: the machine's speed, which every
         other host time is divided by (Calib). *)
      group "host" "none: no change to the simulator should move it"
        [ ("host.kernel_s", "s", Lower, Host); ("host.setup_kernel_s", "s", Lower, Host) ];
    ]

let all = end_to_end @ per_layer

let find name = List.find_opt (fun m -> m.name = name) all

(* [tails]: the percentile metrics a workload must resolve, with at
   least 10 samples beyond each; the ledger fails the workload if one
   is not. Other percentiles are reported only when resolved. *)
type workload = { w_name : string; why : string; tails : string list }

let closed_tails = [ "tm2c.tx.commit_p999_us"; "noc.network.lat_p99_us" ]

let workloads =
  [
    {
      w_name = bank;
      why =
        "closed-loop bank transfers on the 48-core SCC: every transaction \
         writes, so engine, network and DTM do nearly all the work";
      tails = closed_tails;
    };
    {
      w_name = mesh;
      why =
        "read-mostly hash table on a 512-core mesh: the per-dispatch slowdown \
         at scale and the per-pair precompute in setup";
      tails = closed_tails;
    };
    {
      w_name = checked;
      why =
        "hash table with the streaming checker, history log, flight recorder \
         and Perfetto export on: the observability layers dominate";
      tails = closed_tails;
    };
    {
      w_name = openloop;
      why =
        "open-loop bursty arrivals through token-bucket admission: callback \
         and timer driven, the only workload where admission is busy";
      tails = "tm2c.admission.e2e_p999_us" :: closed_tails;
    };
  ]

let tails_of name =
  match List.find_opt (fun w -> w.w_name = name) workloads with
  | Some w -> w.tails
  | None -> []
