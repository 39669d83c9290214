type experiment = {
  id : string;
  description : string;
  run : Exp.t -> unit;
}

let all =
  [
    { id = "settings"; description = "Section 5.1 SCC performance settings table"; run = Settings.run };
    { id = "fig4a"; description = "Hash table: multitasked vs dedicated deployment"; run = Fig4.fig4a };
    { id = "fig4b"; description = "Hash table: speedup over sequential"; run = Fig4.fig4b };
    { id = "fig4c"; description = "Hash table: eager vs lazy write-lock acquisition"; run = Fig4.fig4c };
    { id = "fig5a"; description = "Bank: with vs without contention management"; run = Fig5.fig5a };
    { id = "fig5b"; description = "Bank: number of DTM service cores"; run = Fig5.fig5b };
    { id = "fig5c"; description = "Bank: contention-manager comparison (1 balance core)"; run = Fig5.fig5c };
    { id = "fig5d"; description = "Bank: locks vs transactions"; run = Fig5.fig5d };
    { id = "fig6a"; description = "MapReduce: duration vs cores"; run = Fig6.fig6a };
    { id = "fig6b"; description = "MapReduce: speedup vs input size and chunk size"; run = Fig6.fig6b };
    { id = "fig7a"; description = "Linked list: elastic-early vs normal"; run = Fig7.fig7a };
    { id = "fig7b"; description = "Linked list: elastic-read vs normal"; run = Fig7.fig7b };
    { id = "fig8a"; description = "Round-trip message latency across platforms"; run = Fig8.fig8a };
    { id = "fig8b"; description = "Bank: many-core vs multi-core"; run = Fig8.fig8b };
    { id = "fig8c"; description = "Linked list: many-core vs multi-core"; run = Fig8.fig8c };
    { id = "fig8d"; description = "Hash table: many-core vs multi-core"; run = Fig8.fig8d };
    { id = "ablations"; description = "Design-choice ablations: batching, clock skew, deployment"; run = Ablations.run };
    { id = "fig_overload"; description = "Open-loop overload: goodput vs offered load, admission control on/off"; run = Fig_overload.run };
  ]

let find id = List.find_opt (fun e -> e.id = id) all

let unknown id = Printf.sprintf "unknown experiment %S" id

let check_ids ids =
  match List.find_opt (fun id -> id <> "all" && id <> "ratio" && find id = None) ids with
  | Some id -> Error (unknown id)
  | None -> Ok ids

let run_ids ?json ?(check = false) ids scale =
  let ids = if List.mem "all" ids then List.map (fun e -> e.id) all else ids in
  (* With an export file, every run each experiment performs is
     captured by the runner; runs are grouped per experiment id. *)
  let exported = ref [] in
  let current_runs = ref [] in
  let check_failures = ref 0 in
  (* Runs the watchdog cut short: once one fires, the remaining
     experiments are skipped and whatever was collected so far is
     still written — a partial report beats burning virtual hours on a
     wedged machine. *)
  let wedges = ref 0 in
  let watchdog_window = scale.Exp.window_ns /. 4.0 in
  (* Every cell runs through here, built but before any process is
     spawned. Exported runs also carry phase attribution and the
     flight recorder, whose rows are the run's time series: 16 windows
     per throughput run — enough shape to see warm-up and livelock
     onset without bloating the file. A checked run gets its own
     streaming checker on the trace sink, closed out once the run is
     collected. *)
  let runner t drive =
    if json <> None then begin
      Tm2c_core.Runtime.enable_profiling t;
      if Tm2c_core.Runtime.recorder t = None then
        Tm2c_core.Runtime.enable_recorder t ~window_ns:(scale.Exp.window_ns /. 16.0) ()
    end;
    let stream =
      if check then begin
        let s = Tm2c_check.Stream.create () in
        Tm2c_check.Stream.attach s (Tm2c_core.Runtime.trace t);
        (* The streaming checker retains a window, not the run: report
           its node high-water as the sink footprint. *)
        Tm2c_core.Runtime.set_sink_high_water t (fun () -> Tm2c_check.Stream.peak_nodes s);
        (* Checked runs also get the liveness watchdog: a wedged
           configuration fails fast with a named-core verdict instead
           of silently burning to the horizon. *)
        Tm2c_core.Runtime.enable_watchdog t ~window_ns:watchdog_window ~stall_windows:2;
        Some s
      end
      else None
    in
    let r = drive () in
    if json <> None then current_runs := Report.run_json t r :: !current_runs;
    if Tm2c_core.Runtime.wedged t then begin
      incr wedges;
      Printf.eprintf
        "run wedged: the watchdog saw no progress and cut the run short of its \
         horizon\n%!"
    end;
    Option.iter
      (fun s ->
        Tm2c_check.Collector.detach (Tm2c_core.Runtime.trace t);
        (* On a wedged run, arm the liveness monitor's stuck detection
           so the report names the cores that made no progress. *)
        if Tm2c_core.Runtime.wedged t then
          Tm2c_check.Stream.set_stuck_after_ns s watchdog_window;
        let failures = Tm2c_check.Stream.n_failures (Tm2c_check.Stream.finish s) in
        if failures > 0 then begin
          check_failures := !check_failures + failures;
          Printf.eprintf "check FAILED:\n%s%!" (Tm2c_check.Stream.report_string s)
        end)
      stream;
    r
  in
  let ex = Exp.v ~runner scale in
  let total_s = ref 0.0 in
  List.iter
    (fun id ->
      match find id with
      | Some e when !wedges > 0 ->
          Printf.printf "\n=== %s: skipped (earlier run wedged) ===\n%!" e.id
      | Some e ->
          Printf.printf "\n=== %s: %s ===\n%!" e.id e.description;
          let t0 = Unix.gettimeofday () in
          current_runs := [];
          e.run ex;
          exported := (e.id, e.description, List.rev !current_runs) :: !exported;
          let dt = Unix.gettimeofday () -. t0 in
          total_s := !total_s +. dt;
          Printf.printf "(%s finished in %.1fs host time)\n%!" e.id dt
      | None -> invalid_arg (unknown id))
    ids;
  Printf.printf "(total: %.1fs host time)\n%!" !total_s;
  (match json with
  | None -> ()
  | Some path ->
      let doc =
        Json.Obj
          [
            (* v2: runs gained "phases" / "timeseries" / "trace"
               sections and histograms gained "sum". v3: runs gained a
               "faults" section (fault-injection and hardening
               counters, present and all-zero even on clean runs).
               v4: the faults section gained the reorder / partition /
               server-crash injections and the replication counters,
               and runs gained a "wedged" flag. v5: quantile sketches
               replace histograms (p999 + rel_error keys), the trace
               section gained "sink_high_water", and runs gained a
               "metrics" section (the flight recorder's final
               snapshot, including the host self-profile). v6: runs
               gained an "openloop" section (admission / shedding /
               goodput counters and the end-to-end latency sketch,
               present and all-zero with policy "none" on closed-loop
               runs) and the result gained "horizon_hit". *)
            ("schema_version", Json.Int 6);
            ("scale", Json.String scale.Exp.label);
            ( "experiments",
              Json.List
                (List.rev_map
                   (fun (id, description, runs) ->
                     Json.Obj
                       [
                         ("id", Json.String id);
                         ("description", Json.String description);
                         ("runs", Json.List runs);
                       ])
                   !exported) );
          ]
      in
      Json.to_file path doc;
      Printf.printf "\nwrote %s%s\n%!" path
        (if !wedges > 0 then " (partial: a run wedged)" else ""));
  !check_failures + !wedges
