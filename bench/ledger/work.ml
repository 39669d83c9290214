(* The four ledger workloads, and one measured run of a workload as it
   happens inside a child process.

   Everything is measured from outside the simulator: the run times
   calls into public functions (Runtime.create, the app builders,
   Workload.drive / Openloop.drive, Stream.feed, Histlog.put,
   Recorder.record_event re-installed on the trace tap,
   Perfetto.export) and reads the engine's own dispatch-tag
   self-profile. A timed run has every probe off except the setup /
   drive / finish brackets; a traced run adds the self-profiler, phase
   attribution and the per-event brackets, none of which moves virtual
   time. *)

open Tm2c_core
open Tm2c_apps
module Sim = Tm2c_engine.Sim
module Sketch = Tm2c_engine.Sketch
module Trace = Tm2c_engine.Trace
module Span = Tm2c_engine.Span
module Stream = Tm2c_check.Stream
module Histlog = Tm2c_check.Histlog
module Exp = Tm2c_harness.Exp
module Perfetto = Tm2c_harness.Perfetto
module Json = Tm2c_harness.Json

type length = Full | Smoke

(* Run length in virtual ns. The self-test runs each workload at about
   1/50 of its length; the 512-core mesh gets 1/20, since at 1/50 some
   of its 256 application cores finish no operation at all. *)
let virtual_ns length ~full ~smoke = match length with Full -> full | Smoke -> smoke

(* ---- A run's figures --------------------------------------------------- *)

type tally = {
  mutable ops : int;
  mutable commits : int;
  mutable aborts : int;
  mutable messages : int;
  mutable processed : int;
  mutable elided : int;
  mutable sim_ms : float;  (* virtual ms each result reports as its window *)
  commit_lat : Sketch.t;
  e2e_lat : Sketch.t;
  net_lat : Sketch.t;
  prof_s : float array;  (* self-profile seconds per category *)
  prof_n : int array;  (* self-profile dispatches per category *)
  mutable dtm_requests : int;
  mutable dtm_busy_ns : float;
  mutable dtm_capacity_ns : float;  (* servers x simulated ns *)
  mutable depth_weighted : float;  (* mean queue depth x requests *)
  mutable depth_max : int;
  mutable hot_link : int;
  phase_ns : float array;
  mutable phase_attempts : int;
  conflicts : int array;  (* RAW, WAW, WAR *)
  ol : System.overload;
  mutable horizon_hits : int;
}

let tally () =
  {
    ops = 0;
    commits = 0;
    aborts = 0;
    messages = 0;
    processed = 0;
    elided = 0;
    sim_ms = 0.0;
    commit_lat = Sketch.create ();
    e2e_lat = Sketch.create ();
    net_lat = Sketch.create ();
    prof_s = Array.make 6 0.0;
    prof_n = Array.make 6 0;
    dtm_requests = 0;
    dtm_busy_ns = 0.0;
    dtm_capacity_ns = 0.0;
    depth_weighted = 0.0;
    depth_max = 0;
    hot_link = 0;
    phase_ns = Array.make Phase.n 0.0;
    phase_attempts = 0;
    conflicts = Array.make 3 0;
    ol = System.overload_create ();
    horizon_hits = 0;
  }

let absorb t rt (r : Workload.result) =
  let env = Runtime.env rt in
  let sim = Runtime.sim rt in
  t.ops <- t.ops + r.Workload.ops;
  t.commits <- t.commits + r.Workload.commits;
  t.aborts <- t.aborts + r.Workload.aborts;
  t.messages <- t.messages + r.Workload.messages;
  t.processed <- t.processed + r.Workload.events;
  t.elided <- t.elided + Sim.elided sim;
  t.sim_ms <- t.sim_ms +. r.Workload.duration_ms;
  Sketch.merge ~into:t.commit_lat env.System.commit_lat;
  Sketch.merge ~into:t.e2e_lat env.System.e2e_lat;
  Sketch.merge ~into:t.net_lat (Tm2c_noc.Network.metrics env.System.net).latency;
  Array.iteri
    (fun i (_, s, n) ->
      t.prof_s.(i) <- t.prof_s.(i) +. s;
      t.prof_n.(i) <- t.prof_n.(i) + n)
    (Runtime.self_profile rt);
  let servers = Runtime.servers rt in
  List.iter
    (fun srv ->
      let served = Dtm.served srv in
      let mean, mx = Dtm.queue_depth_stats srv in
      t.dtm_requests <- t.dtm_requests + served;
      t.dtm_busy_ns <- t.dtm_busy_ns +. Dtm.busy_ns srv;
      t.depth_weighted <- t.depth_weighted +. (mean *. float_of_int served);
      t.depth_max <- max t.depth_max mx)
    servers;
  t.dtm_capacity_ns <-
    t.dtm_capacity_ns +. (float_of_int (List.length servers) *. Sim.now sim);
  (match Tm2c_noc.Network.top_links ~limit:1 env.System.net with
  | (_, _, c) :: _ -> t.hot_link <- t.hot_link + c
  | [] -> ());
  let span = Runtime.span_commit rt in
  for core = 0 to Span.n_cores span - 1 do
    t.phase_attempts <- t.phase_attempts + Span.attempts span ~core;
    for p = 0 to Phase.n - 1 do
      t.phase_ns.(p) <- t.phase_ns.(p) +. Span.sum span ~core ~phase:p
    done
  done;
  List.iteri
    (fun i (_, n) -> t.conflicts.(i) <- t.conflicts.(i) + n)
    (Obs.by_conflict (Runtime.obs rt));
  let o = env.System.overload and a = t.ol in
  a.System.ol_offered <- a.System.ol_offered + o.System.ol_offered;
  a.System.ol_admitted <- a.System.ol_admitted + o.System.ol_admitted;
  a.System.ol_shed <- a.System.ol_shed + o.System.ol_shed;
  a.System.ol_expired <- a.System.ol_expired + o.System.ol_expired;
  a.System.ol_executed <- a.System.ol_executed + o.System.ol_executed;
  a.System.ol_completed <- a.System.ol_completed + o.System.ol_completed;
  a.System.ol_goodput <- a.System.ol_goodput + o.System.ol_goodput;
  a.System.ol_wasted <- a.System.ol_wasted + o.System.ol_wasted;
  a.System.ol_retries <- a.System.ol_retries + o.System.ol_retries;
  a.System.ol_retry_exhausted <- a.System.ol_retry_exhausted + o.System.ol_retry_exhausted;
  a.System.ol_queue_peak <- max a.System.ol_queue_peak o.System.ol_queue_peak;
  if r.Workload.horizon_hit then t.horizon_hits <- t.horizon_hits + 1

let logical t = t.processed + t.elided

let ratio a b = if b = 0.0 then 0.0 else a /. b

let per a n = if n = 0 then 0.0 else a /. float_of_int n

let pct a b = 100.0 *. ratio a b

(* A percentile in µs, or 0 (not reported) when fewer than 10 samples
   lie beyond it: a short run must not report a noise tail. The ledger
   fails a workload whose declared tails are not resolved. *)
let us_at sk p =
  if Quant.beyond ~n:(Sketch.count sk) ~pctl:p < 10 then 0.0
  else Sketch.percentile sk p /. 1e3

(* Profile categories, in Sim.host_profile order. *)
let prof_wheel = 0
and prof_fiber = 1
and prof_mailbox = 2
and prof_callback = 3
and prof_dtm = 4
and prof_network = 5

(* Every metric a tally determines: the simulated (virtual) results
   plus the self-profile split, which is all zero on a timed run. *)
let derived t =
  let f = float_of_int in
  let ns_per cat = per (t.prof_s.(cat) *. 1e9) t.prof_n.(cat) in
  let o = t.ol in
  let logical_requests = o.System.ol_offered - o.System.ol_retries in
  [
    ("commits_per_vms", ratio (f t.commits) t.sim_ms);
    ("attempts_per_commit", ratio (f (t.commits + t.aborts)) (f t.commits));
    ("msgs_per_commit", ratio (f t.messages) (f t.commits));
    ("commit_mean_us", Sketch.mean t.commit_lat /. 1e3);
    ("tm2c.tx.commit_p50_us", us_at t.commit_lat 50.0);
    ("tm2c.tx.commit_p999_us", us_at t.commit_lat 99.9);
    ("tm2c.tx.abort_pct", pct (f t.aborts) (f (t.commits + t.aborts)));
    ("engine.wheel.pops", f t.prof_n.(prof_wheel));
    ("engine.wheel.ns_per_pop", ns_per prof_wheel);
    ("engine.fiber.resumes", f t.prof_n.(prof_fiber));
    ("engine.fiber.ns_per_resume", ns_per prof_fiber);
    ("engine.mailbox.deliveries", f t.prof_n.(prof_mailbox));
    ("engine.mailbox.ns_per_delivery", ns_per prof_mailbox);
    ("engine.callback.calls", f t.prof_n.(prof_callback));
    ("engine.callback.ns_per_call", ns_per prof_callback);
    ("engine.elided_pct", pct (f t.elided) (f (logical t)));
    ("noc.network.sends", f t.messages);
    ("noc.network.ns_per_send", ns_per prof_network);
    ("noc.network.lat_p50_us", us_at t.net_lat 50.0);
    ("noc.network.lat_p99_us", us_at t.net_lat 99.0);
    ("noc.network.hot_link_pct", pct (f t.hot_link) (f t.messages));
    ("tm2c.dtm.requests", f t.dtm_requests);
    ("tm2c.dtm.ns_per_request", per (t.prof_s.(prof_dtm) *. 1e9) t.dtm_requests);
    ("tm2c.dtm.busy_pct", pct t.dtm_busy_ns t.dtm_capacity_ns);
    ("tm2c.dtm.queue_depth_mean", per t.depth_weighted t.dtm_requests);
    ("tm2c.dtm.queue_depth_max", f t.depth_max);
    ("tm2c.dtm.requests_per_commit", ratio (f t.dtm_requests) (f t.commits));
    ("tm2c.cm.aborts.raw", f t.conflicts.(0));
    ("tm2c.cm.aborts.waw", f t.conflicts.(1));
    ("tm2c.cm.aborts.war", f t.conflicts.(2));
    ("tm2c.admission.shed", f o.System.ol_shed);
    ("tm2c.admission.expired", f o.System.ol_expired);
    ("tm2c.admission.retries", f o.System.ol_retries);
    ("tm2c.admission.retry_exhausted", f o.System.ol_retry_exhausted);
    ("tm2c.admission.wasted", f o.System.ol_wasted);
    ("tm2c.admission.queue_peak", f o.System.ol_queue_peak);
    ( "tm2c.admission.goodput_per_vms",
      if logical_requests > 0 then ratio (f o.System.ol_goodput) t.sim_ms else 0.0 );
    ( "tm2c.admission.miss_pct",
      if logical_requests > 0 then
        100.0 -. pct (f o.System.ol_goodput) (f logical_requests)
      else 0.0 );
    ("tm2c.admission.e2e_p50_us", us_at t.e2e_lat 50.0);
    ("tm2c.admission.e2e_p999_us", us_at t.e2e_lat 99.9);
  ]
  @ List.mapi
      (fun p name -> ("tm2c.tx.phase." ^ name ^ "_us", per t.phase_ns.(p) t.phase_attempts /. 1e3))
      (Array.to_list Phase.names)

(* Sample counts behind each reported percentile. *)
let samples t =
  [
    ("tm2c.tx.commit_p50_us", Sketch.count t.commit_lat);
    ("tm2c.tx.commit_p999_us", Sketch.count t.commit_lat);
    ("noc.network.lat_p50_us", Sketch.count t.net_lat);
    ("noc.network.lat_p99_us", Sketch.count t.net_lat);
    ("tm2c.admission.e2e_p50_us", Sketch.count t.e2e_lat);
    ("tm2c.admission.e2e_p999_us", Sketch.count t.e2e_lat);
  ]

(* The determinism guard's fields: every rep of a workload, timed or
   traced, must reproduce them exactly. *)
let fingerprint t =
  let o = t.ol in
  [
    ("commits", string_of_int t.commits);
    ("aborts", string_of_int t.aborts);
    ("messages", string_of_int t.messages);
    ("logical_events", string_of_int (logical t));
    ( "commit_latency",
      Printf.sprintf "%h %h" (Sketch.percentile t.commit_lat 50.0)
        (Sketch.percentile t.commit_lat 99.9) );
    ( "e2e_latency",
      Printf.sprintf "%h %h" (Sketch.percentile t.e2e_lat 50.0)
        (Sketch.percentile t.e2e_lat 99.9) );
    ( "overload",
      Printf.sprintf "%d %d %d %d %d %d %d %d %d %d %d" o.System.ol_offered
        o.System.ol_admitted o.System.ol_shed o.System.ol_expired o.System.ol_executed
        o.System.ol_completed o.System.ol_goodput o.System.ol_wasted o.System.ol_retries
        o.System.ol_retry_exhausted o.System.ol_queue_peak );
    ("horizon_hits", string_of_int t.horizon_hits);
  ]

(* ---- One run's outcome, as the child reports it ----------------------- *)

type outcome = {
  values : (string * float) list;
  samples : (string * int) list;
  fingerprint : (string * string) list;
  attempted : int;
  violations : string list;
  spans : Probe.span list;
}

(* The child prints its outcome after a marker line, marshalled: parent
   and child are the same executable. *)
let marker = "\n@@ledger-outcome\n"

let print_outcome (o : outcome) =
  print_string marker;
  Marshal.to_channel stdout o [];
  flush stdout

let parse_outcome text =
  let m = String.length marker in
  let rec find i =
    if i + m > String.length text then None
    else if String.sub text i m = marker then Some (i + m)
    else find (i + 1)
  in
  match find 0 with
  | None -> Error "no outcome in the child's output"
  | Some pos -> (
      match (Marshal.from_string text pos : outcome) with
      | o -> Ok o
      | exception Failure m -> Error ("unreadable outcome: " ^ m))

(* ---- The workloads ------------------------------------------------------ *)

(* A built application: the steady-state drive, then whatever belongs
   to the workload after it (checker verdict, exports), which returns
   per-layer values and correctness violations. *)
type app = {
  drive : unit -> Workload.result;
  after : unit -> (string * float) list * string list;
  brackets : unit -> float;  (* seconds the per-event brackets measured *)
}

type single = {
  config : seed:int -> Runtime.config;
  build : Probe.t -> Runtime.t -> app;  (* app build/populate + attach *)
}

let no_brackets () = 0.0

let hashtable rt =
  let ht = Hashtable.create rt ~n_buckets:64 in
  Hashtable.populate ht (Runtime.fork_prng rt) ~n:256 ~key_range:512;
  (ht, Exp.ht_mix ht ~updates:20 ~range:512)

let ht_violations ht =
  match Hashtable.check_invariants ht with
  | () -> []
  | exception Invalid_argument m -> [ "hash table invariant: " ^ m ]

let bank_scc48 length =
  let duration_ns = virtual_ns length ~full:400e6 ~smoke:8e6 in
  {
    config = (fun ~seed -> Exp.config ~total:48 ~seed ());
    build =
      (fun _ rt ->
        let accounts = 1024 and initial = 1000 in
        let bank = Bank.create rt ~accounts ~initial in
        {
          drive = (fun () -> Workload.drive rt ~duration_ns (Exp.bank_mix bank ~balance:0));
          after =
            (fun () ->
              let total = Bank.total bank in
              ( [],
                if total = accounts * initial then []
                else [ Printf.sprintf "bank total %d, expected %d" total (accounts * initial) ] ));
          brackets = no_brackets;
        });
  }

let hashtable_mesh512 length =
  let duration_ns = virtual_ns length ~full:80e6 ~smoke:4e6 in
  let platform = Tm2c_noc.Platform.scc_mesh ~cols:16 ~rows:16 in
  {
    config = (fun ~seed -> Exp.config ~platform ~total:512 ~seed ());
    build =
      (fun _ rt ->
        let ht, mix = hashtable rt in
        {
          drive = (fun () -> Workload.drive rt ~duration_ns mix);
          after = (fun () -> ([], ht_violations ht));
          brackets = no_brackets;
        });
  }

(* The production observability stack: the streaming checker and a
   history log (to a discarding channel) share the trace sink, the
   flight recorder counts events on the tap, and the final ring is
   exported as a Perfetto timeline. *)
let hashtable_scc48_checked length =
  let duration_ns = virtual_ns length ~full:40e6 ~smoke:0.8e6 in
  {
    config = (fun ~seed -> Exp.config ~total:48 ~seed ());
    build =
      (fun probe rt ->
        let ht, mix = hashtable rt in
        let trace = Runtime.trace rt in
        let stream = Stream.create () in
        let sink = open_out_bin Filename.null in
        let log = Histlog.writer_of_channel sink in
        let feed_b = Probe.bracket () and put_b = Probe.bracket () in
        let rec_b = Probe.bracket () in
        let feed, put =
          if Probe.traced probe then
            (Probe.wrap feed_b (Stream.feed stream), Probe.wrap put_b (Histlog.put log))
          else (Stream.feed stream, Histlog.put log)
        in
        Runtime.enable_tracing rt;
        Trace.set_sink trace (Some (Trace.fanout feed put));
        Runtime.set_sink_high_water rt (fun () -> Stream.peak_nodes stream);
        Runtime.enable_recorder rt ~window_ns:1e6 ~out:ignore ();
        let recorder = Runtime.recorder rt in
        (match recorder with
        | Some r when Probe.traced probe ->
            Trace.set_tap trace (Some (Probe.wrap rec_b (fun _ ev -> Recorder.record_event r ev)))
        | _ -> ());
        let parent = "run.finish" in
        {
          drive = (fun () -> Workload.drive rt ~duration_ns mix);
          after =
            (fun () ->
              let v, finish_s =
                Probe.time probe ~parent "check.finish" (fun () -> Stream.finish stream)
              in
              Histlog.close_writer log;
              let bytes = pos_out sink in
              close_out sink;
              let ring = Trace.length trace in
              let _, export_s =
                Probe.time probe ~parent "perfetto.export" (fun () ->
                    String.length
                      (Json.to_string ~indent:false
                         (Perfetto.export ~app:(Runtime.app_cores rt) ~dtm:(Runtime.dtm_cores rt)
                            trace)))
              in
              let failures = Stream.n_failures v in
              let f = float_of_int in
              ( [
                  ("check.stream.events", f v.Stream.d_events);
                  ("check.stream.ns_per_event", Probe.ns_per_call feed_b);
                  ("check.stream.peak_nodes", f (Stream.peak_nodes stream));
                  ("check.stream.finish_s", finish_s);
                  ("check.stream.failures", f failures);
                  ("check.histlog.ns_per_event", Probe.ns_per_call put_b);
                  ("check.histlog.bytes_per_event", per (f bytes) (Histlog.written log));
                  ("tm2c.recorder.ns_per_event", Probe.ns_per_call rec_b);
                  ( "tm2c.recorder.windows",
                    match recorder with Some r -> f (Recorder.n_windows r) | None -> 0.0 );
                  ("harness.perfetto.export_s", export_s);
                  ("harness.perfetto.ring_events", f ring);
                ],
                (if failures = 0 then []
                 else [ "streaming checker: " ^ Stream.report_string stream ])
                @ ht_violations ht ));
          brackets = (fun () -> feed_b.Probe.total_s +. put_b.Probe.total_s +. rec_b.Probe.total_s);
        });
  }

(* Saturation of this mix, in arrivals/ms per application core, as
   measured by the overload capacity probe (BENCH_overload.json); fixed
   here so the workload does not depend on a probe run. *)
let openloop_sat = 47.6

let openloop_burst_scc16 length =
  let window_ns = virtual_ns length ~full:600e6 ~smoke:12e6 in
  let deadline_ms = Openloop.default.Openloop.client_deadline_ns /. 1e6 in
  let capacity = max 2 (int_of_float (openloop_sat *. deadline_ms /. 2.0)) in
  let cfg =
    {
      Openloop.default with
      Openloop.arrival =
        Openloop.Bursty
          {
            base_per_ms = 0.8 *. openloop_sat;
            burst_per_ms = 3.0 *. openloop_sat;
            burst_start_ns = window_ns /. 4.0;
            burst_end_ns = window_ns /. 2.0;
          };
      window_ns;
      drain_ns = window_ns /. 8.0;
      policy =
        Admission.Token_bucket
          { capacity; rate_per_ms = 0.8 *. openloop_sat; burst = float_of_int capacity };
      retry_budget = 3;
    }
  in
  {
    config = (fun ~seed -> Exp.config ~total:16 ~seed ());
    build =
      (fun _ rt ->
        ignore (Runtime.enable_admission rt ~policy:cfg.Openloop.policy ());
        {
          drive = (fun () -> Openloop.drive rt cfg);
          after =
            (fun () ->
              (* The admission accounting identities. *)
              let o = (Runtime.env rt).System.overload in
              let bad = ref [] in
              let need ok what = if not ok then bad := ("admission accounting: " ^ what) :: !bad in
              need (o.System.ol_offered = o.System.ol_admitted + o.System.ol_shed)
                "offered <> admitted + shed";
              need (o.System.ol_executed + o.System.ol_expired <= o.System.ol_admitted)
                "executed + expired > admitted";
              need (o.System.ol_goodput <= o.System.ol_completed) "goodput > completed";
              need (o.System.ol_completed <= o.System.ol_executed) "completed > executed";
              ([], List.rev !bad));
          brackets = no_brackets;
        });
  }

let single_of_name length = function
  | "bank_scc48" -> Some (bank_scc48 length)
  | "hashtable_mesh512" -> Some (hashtable_mesh512 length)
  | "hashtable_scc48_checked" -> Some (hashtable_scc48_checked length)
  | "openloop_burst_scc16" -> Some (openloop_burst_scc16 length)
  | _ -> None

let heap_mb () = float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. 8.0 /. 1e6

(* Setup, steady state, then the workload's own finish. A setup-only
   run stops after setup: the ledger takes several cheap set-up samples
   per run that way. It times its second set-up, so that the first
   execution of the set-up code (about a third of a cold set-up) stays
   out, and runs the set-up kernel (Calib) right before it. *)
let run_single ~name (w : single) ~seed ~setup_only probe =
  let parent = name in
  let setup_kernel =
    if not setup_only then []
    else begin
      ignore (w.build (Probe.create ~traced:false) (Runtime.create (w.config ~seed)));
      Gc.full_major ();
      let k = Calib.setup_seconds () in
      Gc.full_major ();
      [ ("host.setup_kernel_s", k) ]
    end
  in
  let rt, create_s =
    Probe.time probe ~parent "setup.runtime_create" (fun () -> Runtime.create (w.config ~seed))
  in
  if Probe.traced probe then begin
    Runtime.enable_self_profile rt ~clock:Probe.now;
    Runtime.enable_profiling rt
  end;
  let app, build_s = Probe.time probe ~parent "setup.app_build" (fun () -> w.build probe rt) in
  let setup_s = create_s +. build_s in
  let setup_values =
    [ ("setup_s", setup_s); ("setup.runtime_create_s", create_s); ("setup.app_build_s", build_s) ]
  in
  if setup_only then
    {
      values = setup_values @ setup_kernel;
      samples = [];
      fingerprint = [];
      attempted = 0;
      violations = [];
      spans = Probe.spans probe;
    }
  else begin
    let r, drive_s = Probe.time probe ~parent "run.drive" app.drive in
    let (layer_values, violations), finish_s = Probe.time probe ~parent "run.finish" app.after in
    let t = tally () in
    absorb t rt r;
    let profiled = Array.fold_left ( +. ) 0.0 t.prof_s in
    let attempted =
      let o = t.ol in
      if o.System.ol_offered > 0 then o.System.ol_offered - o.System.ol_retries else t.ops
    in
    {
      values =
        setup_values
        @ [
            ("wall_s", setup_s +. drive_s +. finish_s);
            ("events_per_s", ratio (float_of_int (logical t)) drive_s);
            ("peak_heap_mb", heap_mb ());
            ("engine.self_s", profiled -. app.brackets ());
            ("engine.profile_coverage_pct", pct profiled drive_s);
          ]
        @ derived t @ layer_values;
      samples = samples t;
      fingerprint = fingerprint t;
      attempted;
      violations =
        (if r.Workload.horizon_hit then [ "the run hit its horizon with work unresolved" ] else [])
        @ violations;
      spans = Probe.spans probe;
    }
  end

type mode = Timed | Traced | Setup_only

let names = List.map (fun w -> w.Catalog.w_name) Catalog.workloads

(* One measured run, inside the child process. *)
let run ~name ~seed ~mode length =
  let probe = Probe.create ~traced:(mode = Traced) in
  match single_of_name length name with
  | Some w -> run_single ~name w ~seed ~setup_only:(mode = Setup_only) probe
  | None -> invalid_arg (Printf.sprintf "unknown workload %S" name)
