(* The analysis layer: phase attribution (Span), the flight
   recorder's per-window rows (the exported time series) on
   [Sim.every] ticks, and the Perfetto timeline exporter. *)

open Tm2c_engine
open Tm2c_core
open Tm2c_harness

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---- phase attribution ---- *)

(* A contended bank run with profiling on: per app core, the committed
   phase sums must equal the summed committed-attempt durations (the
   instrumentation charges every telescoping segment of an attempt to
   exactly one phase), and the flushed attempt count must equal the
   core's commit counter. *)
let test_span_invariant () =
  let open Tm2c_apps in
  (* Back-off-Retry: the only policy that waits between attempts, so
     the backoff phase is exercised too. *)
  let cfg = Exp.config ~total:8 ~policy:Cm.Backoff_retry () in
  let t = Runtime.create cfg in
  Runtime.enable_profiling t;
  let bank = Bank.create t ~accounts:32 ~initial:1000 in
  let r = Workload.drive t ~duration_ns:1.5e6 (Exp.bank_mix bank ~balance:20) in
  check "run commits" true (r.Workload.commits > 0);
  check "run aborts (contended)" true (r.Workload.aborts > 0);
  let span = Runtime.span_commit t in
  let active = ref 0 in
  for core = 0 to Span.n_cores span - 1 do
    let attempts = Span.attempts span ~core in
    check_int "attempts = per-core commits" (Stats.core (Runtime.stats t) core).Stats.commits
      attempts;
    if attempts > 0 then begin
      incr active;
      let total = Span.attempt_ns span ~core in
      let phases = Span.phase_total span ~core in
      if Float.abs (phases -. total) > 1e-6 *. Float.max total 1.0 then
        Alcotest.failf "core %d: phase sums %.6f ns <> attempt total %.6f ns" core
          phases total;
      (* The sketches see the same samples as the sums (zero-duration
         phases excluded), so their sums reconcile too. *)
      let hist_sum = ref 0.0 in
      for phase = 0 to Span.n_phases span - 1 do
        hist_sum := !hist_sum +. Sketch.sum (Span.sketch span ~core ~phase)
      done;
      check "sketch sums match phase sums" true
        (Float.abs (!hist_sum -. phases) <= 1e-6 *. Float.max phases 1.0)
    end
  done;
  check "several cores committed" true (!active > 1);
  (* Aborted attempts aggregate separately; the contended run produced
     some, and their backoff phase is charged there (and only there). *)
  let ab = Runtime.span_abort t in
  let ab_attempts = ref 0 and backoff = ref 0.0 and commit_backoff = ref 0.0 in
  for core = 0 to Span.n_cores ab - 1 do
    ab_attempts := !ab_attempts + Span.attempts ab ~core;
    backoff := !backoff +. Span.sum ab ~core ~phase:Phase.backoff;
    commit_backoff := !commit_backoff +. Span.sum span ~core ~phase:Phase.backoff
  done;
  check "aborted attempts recorded" true (!ab_attempts > 0);
  check "backoff charged on the abort side" true (!backoff > 0.0);
  check "no backoff inside committed attempts" true (!commit_backoff = 0.0)

(* Profiling is off by default: the same workload accumulates nothing. *)
let test_span_disabled () =
  let open Tm2c_apps in
  let cfg = Exp.config ~total:8 () in
  let t = Runtime.create cfg in
  let bank = Bank.create t ~accounts:32 ~initial:1000 in
  let r = Workload.drive t ~duration_ns:1.0e6 (Exp.bank_mix bank ~balance:20) in
  check "run commits" true (r.Workload.commits > 0);
  let span = Runtime.span_commit t in
  let total = ref 0 in
  for core = 0 to Span.n_cores span - 1 do
    total := !total + Span.attempts span ~core
  done;
  check_int "nothing accumulated when disabled" 0 !total

(* ---- time series: recorder rows on Sim.every ticks ---- *)

(* Window-boundary exactness: commits at 50/100/150/200/250 with a
   100ns window. Ticks fire at 100/200/300; the simulator's FIFO
   tie-break puts the first edge increment after tick 1 (the tick was
   scheduled earlier) and the second edge increment before tick 2 (it
   was scheduled before the tick existed) — either way each edge event
   lands in exactly ONE window, because consecutive deltas of one
   counter partition its growth. The level gauge is a second
   [Sim.every] tick installed right behind the recorder's: the two stay
   adjacent, so it reads the state each row saw. *)
let test_timeseries_windows () =
  let t = Runtime.create (Exp.config ~total:8 ()) in
  let sim = Runtime.sim t in
  let cstats = Stats.core (Runtime.stats t) 0 in
  Runtime.enable_recorder t ~window_ns:100.0 ();
  let levels = ref [] in
  Sim.every sim ~period:100.0 (fun _ ->
      levels := float_of_int cstats.Stats.commits :: !levels;
      true);
  List.iter
    (fun at ->
      Sim.schedule sim ~at (fun () -> cstats.Stats.commits <- cstats.Stats.commits + 1))
    [ 50.0; 100.0; 150.0; 200.0; 250.0 ];
  ignore (Sim.run sim ());
  (* Both ticks stopped once they were alone (Sim.run returned at
     all), after the window covering the last increment. *)
  let r = Option.get (Runtime.recorder t) in
  check_int "windows" 3 (Recorder.series_length r);
  Alcotest.(check (array (float 0.0)))
    "window-end times" [| 100.0; 200.0; 300.0 |] (Recorder.series_times r);
  (match List.find_opt (fun (name, _, _) -> name = "commits") (Recorder.series r) with
  | Some (_, Recorder.Cumulative, deltas) ->
      Alcotest.(check (array (float 0.0))) "per-window deltas" [| 1.0; 3.0; 1.0 |] deltas;
      check "deltas conserve the total" true
        (Array.fold_left ( +. ) 0.0 deltas = float_of_int cstats.Stats.commits)
  | _ -> Alcotest.fail "unexpected channel shape");
  Alcotest.(check (array (float 0.0)))
    "gauge levels" [| 1.0; 4.0; 5.0 |] (Array.of_list (List.rev !levels));
  check_int "all increments ran" 5 cstats.Stats.commits

(* A recorder on an otherwise-empty simulation records one window and
   does not keep the run alive. *)
let test_timeseries_idle () =
  let t = Runtime.create (Exp.config ~total:8 ()) in
  let sim = Runtime.sim t in
  Runtime.enable_recorder t ~window_ns:100.0 ();
  ignore (Sim.run sim ());
  check_int "one window then stop" 1
    (Recorder.series_length (Option.get (Runtime.recorder t)));
  check "clock did not run away" true (Sim.now sim <= 100.0)

(* ---- Perfetto export ---- *)

let traced_run () =
  let open Tm2c_apps in
  let cfg = Exp.config ~total:8 ~policy:Cm.Fair_cm () in
  let t = Runtime.create cfg in
  Runtime.enable_tracing t;
  let bank = Bank.create t ~accounts:32 ~initial:1000 in
  ignore (Workload.drive t ~duration_ns:1.0e6 (Exp.bank_mix bank ~balance:20));
  t

let test_perfetto_valid () =
  let t = traced_run () in
  let doc =
    Perfetto.export ~app:(Runtime.app_cores t) ~dtm:(Runtime.dtm_cores t)
      (Runtime.trace t)
  in
  (match Perfetto.validate doc with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "export did not validate: %s" msg);
  (* Round-trip through the serializer too: the validator must accept
     what a consumer would re-parse from disk. *)
  (match Perfetto.validate (Json.of_string (Json.to_string ~indent:false doc)) with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "serialized export did not validate: %s" msg);
  match Json.member "traceEvents" doc with
  | Some evs ->
      let evs = Json.to_list_exn evs in
      let count ph =
        List.length
          (List.filter (fun e -> Json.member "ph" e = Some (Json.String ph)) evs)
      in
      check "has track metadata" true (count "M" > 2);
      check "has slices" true (count "X" > 0);
      check "has instants" true (count "i" > 0);
      check "flow starts present" true (count "s" > 0);
      check_int "flows pair up" (count "s") (count "f")
  | None -> Alcotest.fail "traceEvents missing"

(* A hash table on 48 cores with a DS-server crash and an application
   core crash mid-run; hardening and one replica keep it going. Its
   timeline holds service and attempt slices closed by a crash. *)
let faulted_run () =
  let open Tm2c_apps in
  let t = Runtime.create (Exp.config ~total:48 ~seed:42 ()) in
  let spec =
    Printf.sprintf "scrash=%d@2.1e5,crash=%d@2.5e5"
      (Runtime.dtm_cores t).(7) (Runtime.app_cores t).(2)
  in
  (match Tm2c_noc.Fault.of_spec spec with
  | Ok p -> Runtime.set_fault_plan t p
  | Error m -> Alcotest.failf "of_spec %S: %s" spec m);
  Runtime.set_hardening t ~timeout_ns:60_000.0 ~lease_ns:250_000.0 ();
  Runtime.enable_replication t ~replicas:1;
  Runtime.enable_tracing t;
  let ht = Hashtable.create t ~n_buckets:64 in
  Hashtable.populate ht (Runtime.fork_prng t) ~n:256 ~key_range:512;
  ignore (Workload.drive t ~duration_ns:0.4e6 (Exp.ht_mix ht ~updates:20 ~range:512));
  t

let export t =
  Perfetto.export ~app:(Runtime.app_cores t) ~dtm:(Runtime.dtm_cores t) (Runtime.trace t)

let md5 s = Digest.to_hex (Digest.string s)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* The exported bytes, compact and indented, pinned: any change to the
   exporter or the printer that moves one byte fails here. *)
let test_perfetto_pinned () =
  let pin name run ~compact ~indented =
    let doc = export (run ()) in
    let s = Json.to_string ~indent:false doc in
    Alcotest.(check string) (name ^ ", compact") compact (md5 s);
    Alcotest.(check string) (name ^ ", indented") indented (md5 (Json.to_string doc));
    s
  in
  ignore
    (pin "bank/8" traced_run ~compact:"40f2cb3bf1bbda717b1ae7ece7eaa7d2"
       ~indented:"e2b50ec230cc0bf3b1eeb40878d37c54");
  let s =
    pin "hashtable/48, crashes" faulted_run ~compact:"a1bc02b9a1eb7ac6fa34bc3e7621d58d"
      ~indented:"ec54cd979e3eeef7562ea1bedc1661f0"
  in
  check "a crash closed a service slice" true (contains s "(crashed)\"");
  check "a crash closed an attempt slice" true (contains s "\"tx crashed\"")

(* The document reads what export captured, not the live ring: clearing
   the ring or recording into it afterwards leaves the bytes alone. *)
let test_perfetto_detached () =
  let t = traced_run () in
  let doc = export t in
  let before = Json.to_string ~indent:false doc in
  let trace = Runtime.trace t in
  Trace.clear trace;
  check "bytes unchanged after Trace.clear" true (Json.to_string ~indent:false doc = before);
  for i = 0 to 99 do
    Trace.record trace ~now:(float_of_int i) (Event.Server_crashed { server = 4 })
  done;
  check "bytes unchanged after more records" true (Json.to_string ~indent:false doc = before)

let test_perfetto_rejects () =
  let ev ts =
    Json.Obj
      [
        ("ph", Json.String "i");
        ("ts", Json.Float ts);
        ("pid", Json.Int 1);
        ("tid", Json.Int 0);
        ("name", Json.String "x");
        ("s", Json.String "t");
      ]
  in
  let doc evs = Json.Obj [ ("traceEvents", Json.List evs) ] in
  check "non-monotone track rejected" true
    (Result.is_error (Perfetto.validate (doc [ ev 5.0; ev 1.0 ])));
  check "monotone track accepted" true
    (Result.is_ok (Perfetto.validate (doc [ ev 1.0; ev 5.0 ])));
  let flow ph =
    Json.Obj
      [
        ("ph", Json.String ph);
        ("ts", Json.Float 1.0);
        ("pid", Json.Int 1);
        ("tid", Json.Int 0);
        ("id", Json.Int 7);
      ]
  in
  check "unpaired flow start rejected" true
    (Result.is_error (Perfetto.validate (doc [ flow "s" ])));
  check "unpaired flow finish rejected" true
    (Result.is_error (Perfetto.validate (doc [ flow "f" ])));
  check "paired flow accepted" true
    (Result.is_ok (Perfetto.validate (doc [ flow "s"; flow "f" ])));
  check "missing traceEvents rejected" true
    (Result.is_error (Perfetto.validate (Json.Obj [])))

(* ---- exported run structure (v2 sections) ---- *)

let test_run_json_v2 () =
  let open Tm2c_apps in
  let cfg = Exp.config ~total:8 ~policy:Cm.Fair_cm () in
  let t = Runtime.create cfg in
  Runtime.enable_profiling t;
  Runtime.enable_recorder t ~window_ns:1e5 ();
  let bank = Bank.create t ~accounts:32 ~initial:1000 in
  let r = Workload.drive t ~duration_ns:1.5e6 (Exp.bank_mix bank ~balance:20) in
  let v = Json.of_string (Json.to_string (Report.run_json t r)) in
  check "phases enabled" true
    (Json.path [ "phases"; "enabled" ] v = Some (Json.Bool true));
  (match Json.path [ "phases"; "committed" ] v with
  | Some (Json.List (_ :: _)) -> ()
  | _ -> Alcotest.fail "phases.committed empty");
  (match Json.path [ "timeseries"; "channels"; "commits"; "values" ] v with
  | Some (Json.List (_ :: _)) -> ()
  | _ -> Alcotest.fail "timeseries commits channel empty");
  check "trace section reports disabled ring" true
    (Json.path [ "trace"; "enabled" ] v = Some (Json.Bool false));
  check "trace dropped exported" true
    (Json.path [ "trace"; "dropped" ] v = Some (Json.Int 0))

let suite =
  [
    ("span: committed phase sums = attempt totals", `Quick, test_span_invariant);
    ("span: disabled by default", `Quick, test_span_disabled);
    ("timeseries: edge events land in one window", `Quick, test_timeseries_windows);
    ("timeseries: stops when alone", `Quick, test_timeseries_idle);
    ("perfetto: traced run validates", `Quick, test_perfetto_valid);
    ("perfetto: validator rejects malformed docs", `Quick, test_perfetto_rejects);
    ("perfetto: exported bytes pinned", `Quick, test_perfetto_pinned);
    ("perfetto: export detached from the ring", `Quick, test_perfetto_detached);
    ("export: v2 run sections", `Quick, test_run_json_v2);
  ]
