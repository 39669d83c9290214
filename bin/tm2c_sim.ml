(* tm2c-sim: run a single TM2C workload on the simulated many-core
   with every knob exposed — platform, core counts, deployment,
   contention manager, write-acquisition mode, benchmark and mix.
   The flags that change the simulated run are the run description
   {!Tm2c_harness.Shape}; this file adds the output flags (trace,
   exports, recorder, checking) and the report.

   Examples:
     tm2c-sim --bench bank --cores 48 --cm faircm --balance 20
     tm2c-sim --bench hashtable --cores 32 --buckets 64 --updates 30
     tm2c-sim --bench list --elastic read --cores 16
     tm2c-sim --bench mapreduce --input-kb 2048 --chunk-kb 8 *)

open Cmdliner
open Tm2c_core
open Tm2c_apps
module Shape = Tm2c_harness.Shape

let report t (r : Workload.result) =
  Printf.printf "duration      %10.2f ms (virtual)\n" r.Workload.duration_ms;
  Printf.printf "operations    %10d\n" r.Workload.ops;
  Printf.printf "throughput    %10.2f ops/ms\n" r.Workload.throughput_ops_ms;
  Printf.printf "commits       %10d\n" r.Workload.commits;
  Printf.printf "aborts        %10d\n" r.Workload.aborts;
  if Float.is_nan r.Workload.commit_rate then
    Printf.printf "commit rate          n/a (no commits)\n"
  else Printf.printf "commit rate   %10.2f %%\n" r.Workload.commit_rate;
  Printf.printf "worst attempts%10d\n" r.Workload.worst_attempts;
  Printf.printf "messages      %10d\n" r.Workload.messages;
  Printf.printf "sim events    %10d\n" r.Workload.events;
  let obs = Runtime.obs t in
  if Obs.total obs > 0 then begin
    Printf.printf "abort causes  ";
    List.iter
      (fun (c, n) -> Printf.printf "%s=%d " (Types.conflict_to_string c) n)
      (Obs.by_conflict obs);
    print_newline ();
    List.iteri
      (fun i ({ Obs.winner; victim; conflict }, count, addr) ->
        if i < 5 then
          Printf.printf "  core %d aborted core %d  %dx (%s, last addr %d)\n" winner
            victim count
            (Types.conflict_to_string conflict)
            addr)
      (Obs.dump obs)
  end;
  let fl = Runtime.faults t in
  let fc = Tm2c_noc.Fault.counters fl in
  if
    Tm2c_noc.Fault.injected fl > 0
    || fc.Tm2c_noc.Fault.resends > 0
    || fc.Tm2c_noc.Fault.leases_reclaimed > 0
  then
    Printf.printf
      "faults        %10d injected (drop %d, dup %d, delay %d, reorder %d, \
       partition %d, crash %d, scrash %d); %d resends, %d absorbed, %d \
       leases reclaimed\n"
      (Tm2c_noc.Fault.injected fl)
      fc.Tm2c_noc.Fault.dropped fc.Tm2c_noc.Fault.duplicated
      fc.Tm2c_noc.Fault.delayed fc.Tm2c_noc.Fault.reordered
      fc.Tm2c_noc.Fault.partitioned fc.Tm2c_noc.Fault.crashes
      fc.Tm2c_noc.Fault.server_crashes fc.Tm2c_noc.Fault.resends
      fc.Tm2c_noc.Fault.absorbed fc.Tm2c_noc.Fault.leases_reclaimed;
  if Runtime.replicas t > 0 || fc.Tm2c_noc.Fault.cache_evicted > 0 then
    Printf.printf
      "replication   %10d mutations shipped; %d failovers, %d stale-epoch \
       rejections, %d response-cache evictions\n"
      fc.Tm2c_noc.Fault.replicated fc.Tm2c_noc.Fault.failovers
      fc.Tm2c_noc.Fault.stale_rejections fc.Tm2c_noc.Fault.cache_evicted;
  let net = (Runtime.env t).System.net in
  let m = Tm2c_noc.Network.metrics net in
  let lat = m.Tm2c_noc.Network.latency in
  if Tm2c_engine.Sketch.count lat > 0 then
    Printf.printf
      "msg latency   %10.0f ns mean (p50 %.0f, p99 %.0f, p99.9 %.0f, max %.0f)\n"
      (Tm2c_engine.Sketch.mean lat)
      (Tm2c_engine.Sketch.percentile lat 50.0)
      (Tm2c_engine.Sketch.percentile lat 99.0)
      (Tm2c_engine.Sketch.percentile lat 99.9)
      (Tm2c_engine.Sketch.max_value lat);
  let cl = (Runtime.env t).System.commit_lat in
  if Tm2c_engine.Sketch.count cl > 0 then
    Printf.printf
      "commit lat    %10.0f ns mean (p50 %.0f, p99 %.0f, p99.9 %.0f, max %.0f)\n"
      (Tm2c_engine.Sketch.mean cl)
      (Tm2c_engine.Sketch.percentile cl 50.0)
      (Tm2c_engine.Sketch.percentile cl 99.0)
      (Tm2c_engine.Sketch.percentile cl 99.9)
      (Tm2c_engine.Sketch.max_value cl);
  if Runtime.sink_high_water t > 0 then
    Printf.printf "trace sink    %10d checker graph nodes held (high water)\n"
      (Runtime.sink_high_water t);
  List.iter
    (fun s ->
      let qmean, qmax = Dtm.queue_depth_stats s in
      let omean, omax = Dtm.occupancy_stats s in
      Printf.printf
        "dtm core %-3d  %10d served  queue %.2f mean / %d max  locks %.2f mean / %d max\n"
        (Dtm.core s) (Dtm.served s) qmean qmax omean omax)
    (Runtime.servers t)

let dump_trace t oc =
  let tr = Runtime.trace t in
  Printf.fprintf oc "-- event trace: %d events (capacity %d, %d dropped) --\n"
    (Tm2c_engine.Trace.length tr)
    (Tm2c_engine.Trace.capacity tr)
    (Tm2c_engine.Trace.dropped tr);
  Tm2c_engine.Trace.iter tr (fun time ev ->
      Printf.fprintf oc "%14.1f  %s\n" time (Event.to_string ev))

let warn_overflow t =
  let tr = Runtime.trace t in
  let dropped = Tm2c_engine.Trace.dropped tr in
  if dropped > 0 then
    Printf.eprintf
      "warning: trace ring overflowed — the %d oldest events were lost \
       (capacity %d); the dump and any Perfetto export hold only the tail \
       of the run\n%!"
      dropped
      (Tm2c_engine.Trace.capacity tr)

let run (spec : Shape.t) watchdog_ms trace trace_out json perfetto metrics_out
    metrics_window_ms self_profile check history witness =
  let t = Shape.runtime spec in
  if watchdog_ms > 0.0 then
    Runtime.enable_watchdog t ~window_ns:(watchdog_ms *. 1e6) ~stall_windows:3;
  let tracing = trace || trace_out <> None || perfetto <> None in
  if tracing then Runtime.enable_tracing t;
  (* The checkers need the complete history, not the 64K ring tail:
     tap the trace's sink before any process runs. The streaming
     checker and the history-log writer consume events online (sharing
     the sink through a fanout), so neither the run's events nor the
     log are ever resident in memory. *)
  let stream_check = if check then Some (Tm2c_check.Stream.create ()) else None in
  let hist_writer = Option.map Tm2c_check.Histlog.create_writer history in
  (match
     List.filter_map Fun.id
       [
         Option.map Tm2c_check.Stream.feed stream_check;
         Option.map Tm2c_check.Histlog.put hist_writer;
       ]
   with
  | [] -> ()
  | sink :: more ->
      Tm2c_engine.Trace.set_sink (Runtime.trace t)
        (Some (List.fold_left Tm2c_engine.Trace.fanout sink more));
      Tm2c_engine.Trace.enable (Runtime.trace t));
  (match stream_check with
  | Some s ->
      (* The streaming checker retains a window, not the run: report
         its node high-water as the sink footprint. *)
      Runtime.set_sink_high_water t (fun () -> Tm2c_check.Stream.peak_nodes s)
  | None -> ());
  (* The JSON export carries phase attribution, and the flight
     recorder's rows are its time series, so a plain --json run gets
     both without extra flags. *)
  if json <> None then Runtime.enable_profiling t;
  (* Flight recorder: streamed snapshots with --metrics-out, and the
     in-memory final snapshot whenever the JSON export wants one. *)
  let metrics_oc = Option.map open_out metrics_out in
  if metrics_oc <> None || json <> None then begin
    let window_ms =
      match metrics_window_ms with
      | Some w -> w
      | None -> spec.Shape.duration_ms /. 16.0
    in
    Runtime.enable_recorder t
      ~window_ns:(window_ms *. 1e6)
      ?out:(Option.map (fun oc -> output_string oc) metrics_oc)
      ()
  end;
  if self_profile then Runtime.enable_self_profile t ~clock:Unix.gettimeofday;
  Printf.printf "TM2C on %s: %d cores (%d app / %d DTM, %s), %s, %s writes\n\n"
    spec.Shape.platform.Tm2c_noc.Platform.name spec.Shape.cores
    (Array.length (Runtime.app_cores t))
    (Array.length (Runtime.dtm_cores t))
    (if spec.Shape.multitask then "multitasked" else "dedicated")
    (Cm.name spec.Shape.cm)
    (if spec.Shape.eager then "eager" else "lazy");
  let r, closing = Shape.run spec t in
  print_string closing;
  report t r;
  (match metrics_oc with
  | Some oc ->
      (* drive paths finished the recorder inside collect; the eof
         marker is already in the stream. *)
      close_out oc;
      Printf.printf "wrote metrics snapshots to %s (%d windows)\n"
        (Option.get metrics_out)
        (match Runtime.recorder t with
        | Some rec_ -> Tm2c_core.Recorder.n_windows rec_
        | None -> 0)
  | None -> ());
  if self_profile then begin
    let prof = Runtime.self_profile t in
    let total = Array.fold_left (fun a (_, s, _) -> a +. s) 0.0 prof in
    if total > 0.0 then begin
      Printf.printf "host profile  %10.3f s measured\n" total;
      Array.iter
        (fun (name, seconds, samples) ->
          if samples > 0 then
            Printf.printf "  %-18s %8.3f s  %5.1f %%  (%d dispatches)\n" name
              seconds
              (100.0 *. seconds /. total)
              samples)
        prof
    end
  end;
  if tracing then warn_overflow t;
  (match trace_out with
  | Some path ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> dump_trace t oc);
      Printf.printf "wrote trace dump to %s\n" path
  | None ->
      if trace then begin
        print_newline ();
        dump_trace t stdout
      end);
  (match json with
  | Some path ->
      Tm2c_harness.Json.to_file path (Tm2c_harness.Report.run_json t r);
      Printf.printf "wrote run JSON to %s\n" path
  | None -> ());
  (match perfetto with
  | Some path ->
      let doc =
        Tm2c_harness.Perfetto.export ~app:(Runtime.app_cores t)
          ~dtm:(Runtime.dtm_cores t) (Runtime.trace t)
      in
      (* Timeline files get large; skip the pretty-printer. *)
      Tm2c_harness.Json.to_file ~indent:false path doc;
      Printf.printf "wrote Perfetto timeline to %s (open in ui.perfetto.dev)\n"
        path
  | None -> ());
  (* With a replicated service a wedge is a broken promise, and a
     watchdog-armed run wants the wedged cores named: arm the liveness
     monitor's stuck detection, in the history log too, so a replay
     judges the way this run does. *)
  let stuck_after_ns =
    if spec.Shape.replicas > 0 || Runtime.wedged t then
      Some Tm2c_check.Liveness.default_stuck_after_ns
    else None
  in
  (match hist_writer with
  | Some w ->
      let n = Tm2c_check.Histlog.written w in
      Tm2c_check.Histlog.close_writer ?stuck_after_ns w;
      Printf.printf "wrote history log to %s (%d events)\n"
        (Option.get history) n
  | None -> ());
  (match stream_check with
  | Some s ->
      let v = Tm2c_check.Stream.finish ?stuck_after_ns s in
      print_newline ();
      let w = Tm2c_check.Stream.witness s in
      if not (Tm2c_check.Stream.conclude ?witness_file:witness v w) then exit 1
  | None -> ());
  if Runtime.wedged t then begin
    Printf.eprintf
      "watchdog: no progress (no attempt resolved, no operation completed, \
       no application compute) across consecutive windows — run cut short, \
       exiting nonzero\n";
    exit 2
  end

let cmd =
  let watchdog_ms =
    Arg.(value & opt float 0.0
         & info [ "watchdog-ms" ] ~docv:"MS"
             ~doc:"Liveness watchdog window in virtual ms (0 disables): three \
                   consecutive windows without progress (no attempt \
                   resolved, no operation completed, no application \
                   compute) while processes remain cut the run short and \
                   exit nonzero.")
  in
  let trace =
    Arg.(value & flag
         & info [ "trace" ]
             ~doc:"Record the event trace and dump an interleaved log after \
                   the run (keep the run small: the ring holds 64K events).")
  in
  let trace_out =
    Arg.(value & opt (some string) None
         & info [ "trace-out" ] ~docv:"FILE"
             ~doc:"Write the event-trace dump to $(docv) instead of \
                   interleaving it with the report on stdout. Implies \
                   tracing.")
  in
  let json =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"Export the full run record (result, per-core stats, \
                   network, DTM, abort causality, per-phase latency \
                   attribution, flight-recorder metrics and their \
                   per-window time series) as JSON to $(docv). Enables \
                   profiling and the flight recorder.")
  in
  let perfetto =
    Arg.(value & opt (some string) None
         & info [ "perfetto" ] ~docv:"FILE"
             ~doc:"Export the event trace as a Chrome trace_event timeline \
                   to $(docv) — open it in ui.perfetto.dev or \
                   chrome://tracing. Implies tracing.")
  in
  let metrics_out =
    Arg.(value & opt (some string) None
         & info [ "metrics-out" ] ~docv:"FILE"
             ~doc:"Stream flight-recorder snapshots to $(docv): one \
                   OpenMetrics-style text block per window (windowed counter \
                   deltas, latency quantiles, per-partition DTM gauges, \
                   top-K links and abort-blame pairs), '# eof'-terminated. \
                   Memory stays constant in run length.")
  in
  let metrics_window_ms =
    Arg.(value & opt (some float) None
         & info [ "metrics-window-ms" ] ~docv:"MS"
             ~doc:"Flight-recorder window in virtual milliseconds, also the \
                   --json time-series window (default: duration/16).")
  in
  let self_profile =
    Arg.(value & flag
         & info [ "self-profile" ]
             ~doc:"Attribute host (wall-clock) time to simulator categories \
                   — wheel, delay resume, mailbox delivery, callback, DTM, \
                   network — and print the shares after the run. Virtual \
                   results are unchanged.")
  in
  let check =
    Arg.(value & flag
         & info [ "check" ]
             ~doc:"Check the complete event history online, through the \
                   bounded-memory streaming checker (serializability + \
                   opacity oracle, DS-Lock protocol checker, liveness \
                   monitor); print a verdict and exit nonzero (with a \
                   witness) on any violation. To judge the run with the \
                   batch reference oracle, add $(b,--history) and replay \
                   the log with $(b,tm2c-check --streaming=false), which \
                   prints the same report.")
  in
  let history =
    Arg.(value & opt (some string) None
         & info [ "history" ] ~docv:"FILE"
             ~doc:"Write the complete event history (not just the 64K ring \
                   tail) as a machine-readable log to $(docv) — replay it \
                   later with tm2c-check. A replicated or watchdog-cut run \
                   records the wedge threshold it arms, so the replay names \
                   the same wedged cores.")
  in
  let witness =
    Arg.(value & opt (some string) None
         & info [ "witness" ] ~docv:"FILE"
             ~doc:"With --check: on failure, also write the checker verdict \
                   and violation witness to $(docv).")
  in
  let doc = "Run a TM2C workload on the simulated many-core" in
  Cmd.v (Cmd.info "tm2c-sim" ~doc)
    Term.(
      const run $ Shape.term $ watchdog_ms $ trace $ trace_out
      $ json $ perfetto $ metrics_out $ metrics_window_ms $ self_profile $ check
      $ history $ witness)

let () = exit (Cmd.eval cmd)
