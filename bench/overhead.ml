(* Observability-overhead gate (the @baseline alias): run the same
   bank workload with every observability layer off and then on
   (tracing + phase profiling), and write the
   comparison to BENCH_overhead.json.

   Checks, and the exit status reflects all of them:

   - Virtual-time neutrality (hard): observability must not perturb
     the simulation — sketches, spans and the trace ring all consume
     zero virtual time, so the committed
     throughput must agree within 2% (deterministically it is exactly
     equal; the tolerance keeps the gate meaningful if that ever
     changes).
   - Host-time overhead (soft ceiling): enabling everything may cost
     real time, but not more than [host_ratio_threshold] x. Host
     timings are min-of-3 to shed scheduler noise.
   - Flight-recorder leg: the always-on quantile sketches plus the
     recorder (windowed snapshots into an in-memory sink) plus the
     host self-profiler, with tracing and profiling left off —
     the "always on in production" configuration. Its commits must
     equal the bare run exactly (hard: snapshot ticks only read), its
     host ratio must stay under [recorder_ratio_threshold], and when
     [--baseline] points at the committed BENCH_overhead.json the
     ratio must not regress by more than [--gate-pct] percent (CI).

   The gate also measures the replicated lock service the same way:
   [--replicas 0] must reproduce the baseline bit-for-bit (hard, the
   determinism contract), while [--replicas 1] ships every lock-table
   mutation to a backup over the NoC — that traffic is real virtual
   work, so its throughput delta is *reported*, not gated. *)

open Tm2c_core
open Tm2c_apps

let duration_ns = 5e6

let reps = 3

let virtual_pct_threshold = 2.0

let host_ratio_threshold = 5.0

(* The recorder leg stays cheap: snapshot assembly is O(windows), and
   the sketches' add path is O(1); 1.10x would already be suspicious,
   but host ratios on loaded CI machines wobble, hence the headroom. *)
let recorder_ratio_threshold = 2.0

let bench_once ?(replicas = 0) ?(recorder = false) ~observe () =
  let cfg =
    {
      Runtime.platform = Tm2c_noc.Platform.scc;
      total_cores = 16;
      service_cores = 8;
      deployment = Runtime.Dedicated;
      policy = Cm.Fair_cm;
      wmode = Tx.Lazy;
      batching = true;
      max_skew_ns = 3_000.0;
      seed = 42;
      mem_words = 1 lsl 20;
    }
  in
  let t = Runtime.create cfg in
  if replicas > 0 then Runtime.enable_replication t ~replicas;
  if observe then begin
    Runtime.enable_tracing t;
    Runtime.enable_profiling t
  end;
  let sink = Buffer.create 4096 in
  if recorder then begin
    Runtime.enable_recorder t ~window_ns:(duration_ns /. 16.0)
      ~out:(Buffer.add_string sink) ();
    Runtime.enable_self_profile t ~clock:Unix.gettimeofday
  end;
  let accounts = 256 in
  let bank = Bank.create t ~accounts ~initial:1000 in
  let t0 = Unix.gettimeofday () in
  let r =
    Workload.drive t ~duration_ns (fun _core ctx prng () ->
        let src = Tm2c_engine.Prng.int prng accounts
        and dst = Tm2c_engine.Prng.int prng accounts in
        Bank.tx_transfer ctx bank ~src ~dst ~amount:1)
  in
  let host = Unix.gettimeofday () -. t0 in
  if recorder then begin
    (* The stream really was produced and properly terminated. *)
    let s = Buffer.contents sink in
    if Buffer.length sink = 0 then
      failwith
        (Printf.sprintf
           "recorder leg produced no snapshots (replicas=%d, duration=%.0f ns)"
           replicas duration_ns);
    let eof = "# eof\n" in
    if
      String.length s < String.length eof
      || String.sub s (String.length s - String.length eof) (String.length eof)
         <> eof
    then
      failwith
        (Printf.sprintf
           "recorder stream not eof-terminated: %d bytes ending %S"
           (String.length s)
           (String.sub s
              (max 0 (String.length s - 16))
              (min 16 (String.length s))))
  end;
  (r, host, t)

let best ?(replicas = 0) ?(recorder = false) ~observe () =
  let result = ref None and host = ref infinity and last = ref None in
  for _ = 1 to reps do
    let r, h, t = bench_once ~replicas ~recorder ~observe () in
    (match !result with
    | Some (prev : Workload.result) when prev.Workload.commits <> r.Workload.commits
      ->
        failwith
          (Printf.sprintf
             "non-deterministic benchmark run: %d commits, then %d on a repeat \
              of the same configuration"
             prev.Workload.commits r.Workload.commits)
    | _ -> ());
    result := Some r;
    last := Some t;
    host := Float.min !host h
  done;
  (Option.get !result, !host, Option.get !last)

let side_json (r : Workload.result) host =
  Tm2c_harness.Json.Obj
    [
      ("commits", Tm2c_harness.Json.Int r.Workload.commits);
      ("aborts", Tm2c_harness.Json.Int r.Workload.aborts);
      ("throughput_ops_ms", Tm2c_harness.Json.Float r.Workload.throughput_ops_ms);
      ("host_best_s", Tm2c_harness.Json.Float host);
    ]

let () =
  let out = ref "BENCH_overhead.json" in
  let baseline = ref None in
  let gate_pct = ref 10.0 in
  let rec parse = function
    | [] -> ()
    | "--out" :: v :: rest ->
        out := v;
        parse rest
    | "--baseline" :: v :: rest ->
        baseline := Some v;
        parse rest
    | "--gate-pct" :: v :: rest ->
        gate_pct := float_of_string v;
        parse rest
    | a :: rest when String.length a > 0 && a.[0] <> '-' ->
        (* Back-compat: a bare path is the output file. *)
        out := a;
        parse rest
    | a :: _ -> failwith (Printf.sprintf "overhead: unknown argument %s" a)
  in
  parse (List.tl (Array.to_list Sys.argv));
  let off, host_off, _ = best ~observe:false () in
  let on, host_on, _ = best ~observe:true () in
  let rec_r, host_rec, rec_t = best ~recorder:true ~observe:false () in
  (* Replication legs: replicas = 0 is just the baseline again and
     must match it exactly (hard — the enable-nothing path sends no
     replica traffic, so the schedule is bit-for-bit the same);
     replicas = 1 does real NoC work and its delta is reported. *)
  let repl_off, _, _ = best ~replicas:0 ~observe:false () in
  let repl_on, host_repl, _ = best ~replicas:1 ~observe:false () in
  let thr_off = off.Workload.throughput_ops_ms
  and thr_on = on.Workload.throughput_ops_ms
  and thr_repl = repl_on.Workload.throughput_ops_ms in
  let virtual_delta_pct =
    if thr_off > 0.0 then Float.abs (thr_on -. thr_off) /. thr_off *. 100.0
    else 0.0
  in
  let replication_delta_pct =
    if thr_off > 0.0 then (thr_off -. thr_repl) /. thr_off *. 100.0 else 0.0
  in
  let host_ratio = if host_off > 0.0 then host_on /. host_off else 1.0 in
  let recorder_ratio = if host_off > 0.0 then host_rec /. host_off else 1.0 in
  let recorder_virtual_exact = rec_r.Workload.commits = off.Workload.commits in
  let replication_off_exact = repl_off.Workload.commits = off.Workload.commits in
  let profile = Runtime.self_profile rec_t in
  let failures = ref [] in
  if virtual_delta_pct > virtual_pct_threshold then
    failures :=
      Printf.sprintf "virtual throughput delta %.4f%% > %.1f%%"
        virtual_delta_pct virtual_pct_threshold
      :: !failures;
  if host_ratio > host_ratio_threshold then
    failures :=
      Printf.sprintf "host ratio %.2fx > %.1fx" host_ratio host_ratio_threshold
      :: !failures;
  if not recorder_virtual_exact then
    failures :=
      Printf.sprintf "recorder leg diverged: %d commits vs %d bare"
        rec_r.Workload.commits off.Workload.commits
      :: !failures;
  if recorder_ratio > recorder_ratio_threshold then
    failures :=
      Printf.sprintf "recorder host ratio %.2fx > %.1fx" recorder_ratio
        recorder_ratio_threshold
      :: !failures;
  if not replication_off_exact then
    failures := "replication off diverged from baseline" :: !failures;
  (* CI regression gate against the committed numbers: the recorder's
     host-overhead *ratio* (self-relative, so it transfers across
     machines far better than absolute seconds) must not regress by
     more than --gate-pct. *)
  (match !baseline with
  | None -> ()
  | Some path ->
      let open Tm2c_harness in
      let j = Json.of_file path in
      (match
         Option.bind (Json.member "recorder_ratio" j) Json.to_float_opt
       with
      | Some committed when committed > 0.0 ->
          let regress = (recorder_ratio -. committed) /. committed *. 100.0 in
          if regress > !gate_pct then
            failures :=
              Printf.sprintf
                "recorder ratio %.3fx is %.1f%% above committed baseline %.3fx \
                 (gate %.1f%%)"
                recorder_ratio regress committed !gate_pct
              :: !failures
      | _ ->
          (* A pre-v3 baseline has no recorder leg; nothing to gate. *)
          ()));
  let pass = !failures = [] in
  let open Tm2c_harness in
  Json.to_file !out
    (Json.Obj
       [
         (* v3: the flight-recorder leg (recorder + self-profiler on a
            bare run) with its own exactness gate and host ratio. *)
         ("schema_version", Json.Int 3);
         ( "benchmark",
           Json.String
             "bank transfers, SCC, 16 cores (8 app / 8 DTM), FairCM, lazy, 5ms \
              virtual" );
         ("reps", Json.Int reps);
         ("observability_off", side_json off host_off);
         ( "observability_on_layers",
           Json.List
             [
               Json.String "tracing";
               Json.String "phase profiling";
             ] );
         ("observability_on", side_json on host_on);
         ("virtual_delta_pct", Json.Float virtual_delta_pct);
         ("virtual_pct_threshold", Json.Float virtual_pct_threshold);
         ("host_ratio", Json.Float host_ratio);
         ("host_ratio_threshold", Json.Float host_ratio_threshold);
         ("recorder_on", side_json rec_r host_rec);
         ("recorder_virtual_exact", Json.Bool recorder_virtual_exact);
         ("recorder_ratio", Json.Float recorder_ratio);
         ("recorder_ratio_threshold", Json.Float recorder_ratio_threshold);
         ( "recorder_host_profile",
           Json.Obj
             (Array.to_list
                (Array.map
                   (fun (name, seconds, samples) ->
                     ( name,
                       Json.Obj
                         [
                           ("seconds", Json.Float seconds);
                           ("samples", Json.Int samples);
                         ] ))
                   profile)) );
         ("replication_off_exact", Json.Bool replication_off_exact);
         ("replication_on", side_json repl_on host_repl);
         ("replication_delta_pct", Json.Float replication_delta_pct);
         ("pass", Json.Bool pass);
       ]);
  let prof_total =
    Array.fold_left (fun acc (_, s, _) -> acc +. s) 0.0 profile
  in
  Printf.printf
    "observability off: %d commits, %.2f ops/ms, %.3fs host\n\
     observability on:  %d commits, %.2f ops/ms, %.3fs host\n\
     virtual throughput delta %.4f%% (threshold %.1f%%), host ratio %.2fx \
     (threshold %.1fx)\n\
     recorder on:       %d commits (%s bare run), %.3fs host — ratio %.2fx \
     (threshold %.1fx)\n"
    off.Workload.commits thr_off host_off on.Workload.commits thr_on host_on
    virtual_delta_pct virtual_pct_threshold host_ratio host_ratio_threshold
    rec_r.Workload.commits
    (if recorder_virtual_exact then "bit-for-bit equal to" else "DIVERGED from")
    host_rec recorder_ratio recorder_ratio_threshold;
  if prof_total > 0.0 then begin
    Printf.printf "recorder self-profile (last rep):\n";
    Array.iter
      (fun (name, seconds, samples) ->
        if samples > 0 then
          Printf.printf "  %-17s %6.1f%%  %.4fs  %9d dispatches\n" name
            (100.0 *. seconds /. prof_total)
            seconds samples)
      profile
  end;
  Printf.printf
    "replication off:   %d commits (%s baseline)\n\
     replication on:    %d commits, %.2f ops/ms — %.2f%% virtual overhead \
     (reported, not gated)\n\
     wrote %s\n"
    repl_off.Workload.commits
    (if replication_off_exact then "bit-for-bit equal to" else "DIVERGED from")
    repl_on.Workload.commits thr_repl replication_delta_pct !out;
  if not pass then begin
    List.iter (fun f -> Printf.eprintf "overhead gate FAILED: %s\n" f) !failures;
    exit 1
  end
