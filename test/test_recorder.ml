(* The streaming flight recorder: sketch-derived quantiles against the
   exact per-commit samples the trace carries, the telescoping
   windowed-counter invariant, the OpenMetrics-style text stream, and
   the bounded-memory claim (resident size independent of how many
   windows were emitted). *)

open Tm2c_core
open Tm2c_engine

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let duration_ns = 3e6

let config () =
  {
    Runtime.platform = Tm2c_noc.Platform.scc;
    total_cores = 16;
    service_cores = 8;
    deployment = Runtime.Dedicated;
    policy = Cm.Fair_cm;
    wmode = Tx.Lazy;
    batching = true;
    seed = 7;
  }

let drive_bank t =
  let open Tm2c_apps in
  let accounts = 64 in
  let bank = Bank.create t ~accounts ~initial:1000 in
  Workload.drive t ~duration_ns (fun _core ctx prng () ->
      let src = Prng.int prng accounts and dst = Prng.int prng accounts in
      Bank.tx_transfer ctx bank ~src ~dst ~amount:1)

(* A traced, recorded run: the collector keeps the exact event stream
   (the oracle), the recorder streams snapshots into [buf]. *)
let recorded_run () =
  let t = Runtime.create (config ()) in
  let c = Tm2c_check.Collector.create () in
  Tm2c_check.Collector.attach c (Runtime.trace t);
  Runtime.set_sink_high_water t (fun () -> Tm2c_check.Collector.length c);
  let buf = Buffer.create 4096 in
  Runtime.enable_recorder t ~window_ns:(duration_ns /. 8.0)
    ~out:(Buffer.add_string buf) ();
  let r = drive_bank t in
  (t, c, buf, r)

(* ISSUE acceptance: on a seeded reference run, the always-on
   commit-latency sketch's p50/p90/p99/p999 match the exact
   sorted-sample computation over the run's actual per-commit
   durations (from the Tx_committed trace records) within the
   sketch's documented relative-error bound. *)
let test_sketch_matches_exact_samples () =
  let t, c, _, r = recorded_run () in
  let durations = ref [] in
  Tm2c_check.Collector.iter c (fun _ts ev ->
      match ev with
      | Event.Tx_committed { duration_ns = d; _ } -> durations := d :: !durations
      | _ -> ());
  let sorted = Array.of_list !durations in
  Array.sort compare sorted;
  let n = Array.length sorted in
  check "run committed" true (n > 100);
  check_int "one sample per commit" r.Tm2c_apps.Workload.commits n;
  let sk = (Runtime.env t).System.commit_lat in
  check_int "sketch saw every commit" n (Sketch.count sk);
  let rel = Sketch.rel_error sk in
  List.iter
    (fun p ->
      let rank = int_of_float (Float.round (float_of_int n *. p /. 100.0)) in
      let rank = if rank < 1 then 1 else if rank > n then n else rank in
      let exact = sorted.(rank - 1) in
      let est = Sketch.percentile sk p in
      if Float.abs (est -. exact) > (rel *. exact) +. 1e-9 then
        Alcotest.failf "p%g: sketch %.3f vs exact %.3f exceeds ±%g relative" p
          est exact rel)
    [ 50.0; 90.0; 99.0; 99.9 ]

(* Telescoping: after [finish], every counter's emitted windowed
   deltas sum to its total — the windowed stream lost nothing — and
   the headline counters agree with the run result. *)
let test_windowed_sums_telescope () =
  let t, _, _, r = recorded_run () in
  let rec_ = Option.get (Runtime.recorder t) in
  check "several windows" true (Recorder.n_windows rec_ >= 2);
  List.iter
    (fun (name, total, emitted) ->
      if total <> emitted then
        Alcotest.failf "counter %s: windowed sum %.1f <> total %.1f" name
          emitted total)
    (Recorder.counter_totals rec_);
  let total name =
    match
      List.find_opt (fun (n, _, _) -> n = name) (Recorder.counter_totals rec_)
    with
    | Some (_, v, _) -> int_of_float v
    | None -> Alcotest.failf "counter %s missing" name
  in
  check_int "commits counter" r.Tm2c_apps.Workload.commits (total "commits");
  check_int "aborts counter" r.Tm2c_apps.Workload.aborts (total "aborts");
  check_int "ops counter" r.Tm2c_apps.Workload.ops (total "ops");
  (* Trace was on (collector attached), so the tap counted events. *)
  check_int "tx_committed events" r.Tm2c_apps.Workload.commits
    (List.assoc "tx_committed" (Recorder.event_totals rec_));
  (* And finish is idempotent (Workload.collect already called it). *)
  let before = Recorder.n_windows rec_ in
  Runtime.finish_recorder t;
  check_int "no extra window on re-finish" before (Recorder.n_windows rec_)

(* The text stream: one "# window" header per emitted window, the
   promised metric families, and a final "# eof". *)
let test_snapshot_stream_format () =
  let t, _, buf, _ = recorded_run () in
  let s = Buffer.contents buf in
  let occurrences pat =
    let n = String.length s and m = String.length pat in
    let count = ref 0 in
    for i = 0 to n - m do
      if String.sub s i m = pat then incr count
    done;
    !count
  in
  let rec_ = Option.get (Runtime.recorder t) in
  check_int "one header per window" (Recorder.n_windows rec_)
    (occurrences "# window ");
  check "commits total emitted" true (occurrences "tm2c_commits_total " > 0);
  check "windowed delta emitted" true (occurrences "tm2c_commits_window " > 0);
  check "commit-latency quantiles emitted" true
    (occurrences "tm2c_commit_latency_ns{q=\"0.99\"}" > 0);
  check "message-latency sketch emitted" true
    (occurrences "tm2c_msg_latency_ns{q=\"0.5\"}" > 0);
  check "sink high-water emitted" true
    (occurrences "tm2c_trace_sink_high_water " > 0);
  check "dtm gauges emitted" true (occurrences "tm2c_dtm_served_window{" > 0);
  check "event counts emitted" true
    (occurrences "tm2c_trace_events_window{" > 0);
  let eof = "# eof\n" in
  check "eof-terminated" true
    (String.length s >= String.length eof
    && String.sub s (String.length s - String.length eof) (String.length eof)
       = eof)

(* Recorder off the trace: without a collector the tap still counts
   nothing (tracing stays disabled — the recorder never forces it on),
   but counters and sketches work. *)
let test_recorder_without_tracing () =
  let t = Runtime.create (config ()) in
  Runtime.enable_recorder t ~window_ns:(duration_ns /. 8.0) ();
  let r = drive_bank t in
  let rec_ = Option.get (Runtime.recorder t) in
  check "no trace events counted" true
    (List.for_all (fun (_, n) -> n = 0) (Recorder.event_totals rec_));
  check "commits still counted" true
    (List.exists
       (fun (n, v, _) -> n = "commits" && int_of_float v = r.Tm2c_apps.Workload.commits)
       (Recorder.counter_totals rec_));
  check "commit-latency sketch fed" true
    (Sketch.count (Runtime.env t).System.commit_lat = r.Tm2c_apps.Workload.commits)

(* Bounded memory: the same run emitting 16x as many windows must not
   grow the recorder's reachable size — every window is emitted and
   reset, nothing is retained per window. The two runtimes are
   identical (the snapshot tick only reads), so any systematic
   difference would be per-window retention. *)
let test_constant_memory () =
  let run windows =
    let t = Runtime.create (config ()) in
    Runtime.enable_recorder t
      ~window_ns:(duration_ns /. float_of_int windows)
      ~out:(fun _ -> ())
      ();
    ignore (drive_bank t);
    let rec_ = Option.get (Runtime.recorder t) in
    (Recorder.n_windows rec_, Obj.reachable_words (Obj.repr rec_))
  in
  let n_few, words_few = run 8 in
  let n_many, words_many = run 128 in
  check "window counts differ by an order of magnitude" true
    (n_many >= 8 * n_few);
  (* Allow scheduling jitter (the snapshot cadence perturbs wheel
     bucket sizes) but nothing close to linear-in-windows growth. *)
  if words_many > words_few + (words_few / 10) + 4096 then
    Alcotest.failf
      "recorder grew with window count: %d words over %d windows vs %d words \
       over %d windows"
      words_many n_many words_few n_few

(* Observability is virtual-time neutral: tracing, phase profiling,
   the recorder and the host self-profiler only read, so the 16-core
   bank run gives the same result however many of them are on —
   commits, aborts, messages, logical events (processed plus elided,
   less the recorder's own window ticks) and the end instant. *)
let test_observability_neutral () =
  let run ~observe ~record =
    let t = Runtime.create { (config ()) with Runtime.seed = 42 } in
    if observe then begin
      Runtime.enable_tracing t;
      Runtime.enable_profiling t
    end;
    if record then begin
      Runtime.enable_recorder t ~window_ns:(5e6 /. 16.0) ~out:(fun _ -> ()) ();
      Runtime.enable_self_profile t ~clock:Unix.gettimeofday
    end;
    let open Tm2c_apps in
    let accounts = 256 in
    let bank = Bank.create t ~accounts ~initial:1000 in
    let r =
      Workload.drive t ~duration_ns:5e6 (fun _core ctx prng () ->
          let src = Prng.int prng accounts and dst = Prng.int prng accounts in
          Bank.tx_transfer ctx bank ~src ~dst ~amount:1)
    in
    let ticks =
      match Runtime.recorder t with
      | None -> 0
      | Some rec_ ->
          check "recorder ticked" true (Recorder.series_length rec_ > 0);
          check "self-profiler sampled" true
            (Array.exists (fun (_, _, n) -> n > 0) (Runtime.self_profile t));
          Recorder.series_length rec_
    in
    let sim = Runtime.sim t in
    ({ r with Workload.events = r.Workload.events - ticks }, Sim.elided sim, Sim.now sim)
  in
  let ((bare, _, _) as base) = run ~observe:false ~record:false in
  check "the bare run commits" true (bare.Tm2c_apps.Workload.commits > 0);
  List.iter
    (fun (name, observe, record) ->
      check (name ^ ": same result as bare") true (run ~observe ~record = base))
    [
      ("tracing + profiling", true, false);
      ("recorder + self-profile", false, true);
      ("all on", true, true);
    ]

(* Byte pins, recorded before per-link counts moved behind the send
   log, of a 512-core mesh run's flight-recorder stream and of its
   JSON [network] section (its top links and latency sketch): the run
   [tm2c-sim --platform mesh:16x16 --cores 512 --bench hashtable
   --duration 2 --metrics-window-ms 0.05 --json]. The windows are
   short enough that the link log is folded mid-fill by a window read,
   not only when it fills. *)
let mesh_spec =
  {
    Tm2c_harness.Shape.default with
    bench = Tm2c_harness.Shape.Hashtable;
    platform = Tm2c_noc.Platform.scc_mesh ~cols:16 ~rows:16;
    cores = 512;
    duration_ms = 2.0;
  }

let test_mesh_link_pins () =
  let t = Tm2c_harness.Shape.runtime mesh_spec in
  let buf = Buffer.create 65536 in
  Runtime.enable_profiling t;
  Runtime.enable_recorder t ~window_ns:0.05e6 ~out:(Buffer.add_string buf) ();
  let r, _ = Tm2c_harness.Shape.run mesh_spec t in
  let windows =
    match Runtime.recorder t with Some rc -> Recorder.n_windows rc | None -> 0
  in
  let sent = Tm2c_noc.Network.sent (Runtime.env t).System.net in
  check "windows are shorter than a full link log (512 sends)" true
    (windows > 0 && sent / windows < 512 && sent > 512);
  let network =
    match Tm2c_harness.Report.run_json t r with
    | Tm2c_harness.Json.Obj fields -> List.assoc "network" fields
    | _ -> Alcotest.fail "run JSON is not an object"
  in
  Alcotest.(check string) "recorder stream MD5" "d9a960935229463b7228f79d49a807a3"
    (Digest.to_hex (Digest.string (Buffer.contents buf)));
  Alcotest.(check string) "network section MD5" "efe192ce8226c5005a15f2c1e27f43ac"
    (Digest.to_hex (Digest.string (Tm2c_harness.Json.to_string network)))

let suite =
  [
    ("recorder: sketch quantiles match exact samples", `Quick,
     test_sketch_matches_exact_samples);
    ("recorder: windowed counter sums telescope to totals", `Quick,
     test_windowed_sums_telescope);
    ("recorder: snapshot stream format", `Quick, test_snapshot_stream_format);
    ("recorder: counts nothing when tracing is off", `Quick,
     test_recorder_without_tracing);
    ("recorder: resident memory constant in run length", `Quick,
     test_constant_memory);
    ("recorder: observability is virtual-time neutral", `Quick,
     test_observability_neutral);
    ("recorder: 512-core mesh link windows and network JSON pinned", `Quick,
     test_mesh_link_pins);
  ]
