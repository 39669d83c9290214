(* tm2c-sim: run a single TM2C workload on the simulated many-core
   with every knob exposed — platform, core counts, deployment,
   contention manager, write-acquisition mode, benchmark and mix.

   Examples:
     tm2c-sim --bench bank --cores 48 --cm faircm --balance 20
     tm2c-sim --bench hashtable --cores 32 --buckets 64 --updates 30
     tm2c-sim --bench list --elastic read --cores 16
     tm2c-sim --bench mapreduce --input-kb 2048 --chunk-kb 8 *)

open Cmdliner
open Tm2c_core
open Tm2c_apps

type bench = Bank | Hashtable | List_bench | Mapreduce | Counter

let bench_conv =
  let parse = function
    | "bank" -> Ok Bank
    | "hashtable" | "ht" -> Ok Hashtable
    | "list" | "linkedlist" -> Ok List_bench
    | "mapreduce" | "mr" -> Ok Mapreduce
    | "counter" -> Ok Counter
    | s -> Error (`Msg (Printf.sprintf "unknown benchmark %S" s))
  in
  Arg.conv (parse, fun fmt b ->
      Format.pp_print_string fmt
        (match b with
        | Bank -> "bank"
        | Hashtable -> "hashtable"
        | List_bench -> "list"
        | Mapreduce -> "mapreduce"
        | Counter -> "counter"))

let platform_conv =
  let parse = function
    | "scc" -> Ok Tm2c_noc.Platform.scc
    | "scc800" -> Ok Tm2c_noc.Platform.scc800
    | "opteron" | "multicore" -> Ok Tm2c_noc.Platform.opteron
    | s -> (
        match int_of_string_opt s with
        | Some i when i >= 0 && i <= 4 -> Ok (Tm2c_noc.Platform.scc_setting i)
        | Some _ | None -> Error (`Msg (Printf.sprintf "unknown platform %S" s)))
  in
  Arg.conv (parse, fun fmt p -> Format.pp_print_string fmt p.Tm2c_noc.Platform.name)

let cm_conv =
  let parse s =
    match Cm.of_string s with
    | Some p -> Ok p
    | None -> Error (`Msg (Printf.sprintf "unknown contention manager %S" s))
  in
  Arg.conv (parse, fun fmt p -> Format.pp_print_string fmt (Cm.name p))

let elastic_conv =
  let parse = function
    | "none" | "normal" -> Ok `Normal
    | "early" -> Ok `Elastic_early
    | "read" -> Ok `Elastic_read
    | s -> Error (`Msg (Printf.sprintf "unknown elastic mode %S" s))
  in
  Arg.conv (parse, fun fmt m ->
      Format.pp_print_string fmt
        (match m with
        | `Normal -> "normal"
        | `Elastic_early -> "early"
        | `Elastic_read -> "read"))

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

let fault_plan_conv =
  let parse s =
    match Tm2c_noc.Fault.of_spec s with
    | Ok p -> Ok p
    | Error m -> Error (`Msg m)
  in
  Arg.conv (parse, fun fmt p -> Format.pp_print_string fmt (Tm2c_noc.Fault.to_spec p))

let run bench platform cm cores service multitask eager fault_plan timeout_ns
    lease_ns replicas watchdog_ms trace trace_out json perfetto metrics_out
    metrics_window_ms self_profile check history witness
    duration_ms seed balance accounts buckets updates elastic size input_kb
    chunk_kb =
  let deployment = if multitask then Runtime.Multitask else Runtime.Dedicated in
  let service = match service with Some s -> s | None -> max 1 (cores / 2) in
  let cfg =
    {
      Runtime.platform;
      total_cores = cores;
      service_cores = (if multitask then cores else service);
      deployment;
      policy = cm;
      wmode = (if eager then Tx.Eager else Tx.Lazy);
      batching = true;
      max_skew_ns = 3_000.0;
      seed;
      mem_words = 1 lsl 20;
    }
  in
  let duration_ns = duration_ms *. 1e6 in
  let t = Runtime.create cfg in
  (match fault_plan with
  | Some plan -> Runtime.set_fault_plan t plan
  | None -> ());
  if timeout_ns > 0.0 || lease_ns > 0.0 then
    Runtime.set_hardening t ~timeout_ns ~lease_ns ();
  if replicas > 0 then Runtime.enable_replication t ~replicas;
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
  (match (stream_check, hist_writer) with
  | Some s, Some w ->
      Tm2c_engine.Trace.set_sink (Runtime.trace t)
        (Some
           (Tm2c_engine.Trace.fanout (Tm2c_check.Stream.feed s)
              (Tm2c_check.Histlog.put w)));
      Tm2c_engine.Trace.enable (Runtime.trace t)
  | Some s, None -> Tm2c_check.Stream.attach s (Runtime.trace t)
  | None, Some w ->
      Tm2c_engine.Trace.set_sink (Runtime.trace t) (Some (Tm2c_check.Histlog.put w));
      Tm2c_engine.Trace.enable (Runtime.trace t)
  | None, None -> ());
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
      match metrics_window_ms with Some w -> w | None -> duration_ms /. 16.0
    in
    Runtime.enable_recorder t
      ~window_ns:(window_ms *. 1e6)
      ?out:(Option.map (fun oc -> output_string oc) metrics_oc)
      ()
  end;
  if self_profile then Runtime.enable_self_profile t ~clock:Unix.gettimeofday;
  Printf.printf "TM2C on %s: %d cores (%d app / %d DTM, %s), %s, %s writes\n\n"
    platform.Tm2c_noc.Platform.name cores
    (Array.length (Runtime.app_cores t))
    (Array.length (Runtime.dtm_cores t))
    (if multitask then "multitasked" else "dedicated")
    (Cm.name cm)
    (if eager then "eager" else "lazy");
  let r =
    match bench with
    | Bank ->
        let bank = Bank.create t ~accounts ~initial:1000 in
        let r =
          Workload.drive t ~duration_ns (fun _core ctx prng () ->
              if Tm2c_engine.Prng.int prng 100 < balance then
                ignore (Bank.tx_balance ctx bank)
              else begin
                let src = Tm2c_engine.Prng.int prng accounts
                and dst = Tm2c_engine.Prng.int prng accounts in
                Bank.tx_transfer ctx bank ~src ~dst ~amount:1
              end)
        in
        Printf.printf "total balance %10d (conserved: %b)\n" (Bank.total bank)
          (Bank.total bank = accounts * 1000);
        r
    | Hashtable ->
        let ht = Hashtable.create t ~n_buckets:buckets in
        Hashtable.populate ht (Runtime.fork_prng t) ~n:size ~key_range:(2 * size);
        let r =
          Workload.drive t ~duration_ns (fun _core ctx prng () ->
              let k = Tm2c_engine.Prng.int prng (2 * size) in
              let p = Tm2c_engine.Prng.int prng 100 in
              if p < updates then
                if p land 1 = 0 then ignore (Hashtable.tx_add ctx ht k)
                else ignore (Hashtable.tx_remove ctx ht k)
              else ignore (Hashtable.tx_contains ctx ht k))
        in
        Hashtable.check_invariants ht;
        Printf.printf "final size    %10d\n" (Hashtable.size ht);
        r
    | List_bench ->
        let l = Linkedlist.create t in
        Linkedlist.populate l (Runtime.fork_prng t) ~n:size ~key_range:(2 * size);
        let r =
          Workload.drive t ~duration_ns (fun _core ctx prng () ->
              let k = Tm2c_engine.Prng.int prng (2 * size) in
              let p = Tm2c_engine.Prng.int prng 100 in
              if p < updates then
                if p land 1 = 0 then ignore (Linkedlist.tx_add ~mode:elastic ctx l k)
                else ignore (Linkedlist.tx_remove ~mode:elastic ctx l k)
              else ignore (Linkedlist.tx_contains ~mode:elastic ctx l k))
        in
        Linkedlist.check_invariants l;
        Printf.printf "final size    %10d\n" (Linkedlist.size l);
        r
    | Mapreduce ->
        let mr =
          Mapreduce.create t ~seed ~input_bytes:(input_kb * 1024)
            ~chunk_bytes:(chunk_kb * 1024)
        in
        let r =
          Workload.run_to_completion t (fun _core ctx _prng -> Mapreduce.worker ctx mr)
        in
        Printf.printf "histogram ok  %10b\n"
          (Mapreduce.histogram mr = Mapreduce.expected_histogram mr);
        r
    | Counter ->
        let counter = Tm2c_memory.Alloc.alloc (Runtime.alloc t) ~words:1 in
        let r =
          Workload.drive t ~duration_ns (fun _core ctx _prng () ->
              Tx.atomic ctx (fun () -> Tx.write ctx counter (Tx.read ctx counter + 1)))
        in
        Printf.printf "counter       %10d\n"
          (Tm2c_memory.Shmem.peek (Runtime.shmem t) counter);
        r
  in
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
  let write_witness report =
    match witness with
    | Some path ->
        let oc = open_out path in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () -> output_string oc report);
        Printf.printf "wrote witness to %s\n" path
    | None -> ()
  in
  (match hist_writer with
  | Some w ->
      let n = Tm2c_check.Histlog.written w in
      Tm2c_check.Histlog.close_writer w;
      Printf.printf "wrote history log to %s (%d events)\n"
        (Option.get history) n
  | None -> ());
  (match stream_check with
  | Some s ->
      (* With a replicated service a wedge is a broken promise, and a
         watchdog-armed run wants the wedged cores named: arm the
         liveness monitor's stuck detection before closing out. *)
      if replicas > 0 || Runtime.wedged t then
        Tm2c_check.Stream.set_stuck_after_ns s 1e6;
      let v = Tm2c_check.Stream.finish s in
      print_newline ();
      Format.printf "%a" Tm2c_check.Stream.pp_verdict v;
      if not (Tm2c_check.Stream.passed v) then begin
        Format.printf "%a" Tm2c_check.Stream.pp_witness s;
        write_witness (Tm2c_check.Stream.report_string s);
        exit 1
      end
  | None -> ());
  if Runtime.wedged t then begin
    Printf.eprintf
      "watchdog: no progress (no attempt resolved, no operation completed, \
       no application compute) across consecutive windows — run cut short, \
       exiting nonzero\n";
    exit 2
  end

let cmd =
  let bench =
    Arg.(value & opt bench_conv Bank
         & info [ "bench"; "b" ] ~docv:"BENCH"
             ~doc:"Benchmark: bank, hashtable, list, mapreduce, counter.")
  in
  let platform =
    Arg.(value & opt platform_conv Tm2c_noc.Platform.scc
         & info [ "platform"; "p" ] ~docv:"PLATFORM"
             ~doc:"Platform: scc, scc800, opteron, or an SCC setting 0-4.")
  in
  let cm =
    Arg.(value & opt cm_conv Cm.Fair_cm
         & info [ "cm" ] ~docv:"CM"
             ~doc:"Contention manager: nocm, backoff, offset-greedy, wholly, faircm.")
  in
  let cores = Arg.(value & opt int 48 & info [ "cores"; "n" ] ~doc:"Total cores.") in
  let service =
    Arg.(value & opt (some int) None
         & info [ "service" ] ~doc:"DTM service cores (default: half).")
  in
  let multitask =
    Arg.(value & flag & info [ "multitask" ] ~doc:"Multitasked deployment.")
  in
  let eager =
    Arg.(value & flag & info [ "eager" ] ~doc:"Eager write-lock acquisition.")
  in
  let fault_plan =
    Arg.(value & opt (some fault_plan_conv) None
         & info [ "fault-plan" ] ~docv:"SPEC"
             ~doc:"Deterministic fault plan, e.g. \
                   $(b,drop=0.01,dup=0.02,delay=0.05\\@2000,stall=8\\@1e6+5e5,crash=3\\@2e6) \
                   or $(b,none). Faults draw from their own PRNG stream, so \
                   $(b,none) is bit-for-bit the unfaulted run.")
  in
  let timeout_ns =
    Arg.(value & opt float 0.0
         & info [ "timeout-ns" ] ~docv:"NS"
             ~doc:"DTM request timeout in virtual ns (0 disables): resend \
                   with the same sequence number on expiry, exponential \
                   backoff, duplicates absorbed server-side.")
  in
  let lease_ns =
    Arg.(value & opt float 0.0
         & info [ "lease-ns" ] ~docv:"NS"
             ~doc:"Lock lease in virtual ns (0 disables): a holder blocking \
                   a request past its lease is reclaimed under a status-word \
                   CAS (recovers orphan locks of crashed cores).")
  in
  let replicas =
    Arg.(value & opt int 0
         & info [ "replicas" ] ~docv:"N"
             ~doc:"Replicated DS-lock service (0 or 1): each primary ships \
                   its lock-table mutations to a backup server; clients that \
                   exhaust their resend patience bump the partition epoch and \
                   fail over to it. Requires --timeout-ns and the dedicated \
                   deployment.")
  in
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
                   witness) on any violation. For the batch oracle's more \
                   detailed report, add $(b,--history) and replay the log \
                   with $(b,tm2c-check --streaming=false).")
  in
  let history =
    Arg.(value & opt (some string) None
         & info [ "history" ] ~docv:"FILE"
             ~doc:"Write the complete event history (not just the 64K ring \
                   tail) as a machine-readable log to $(docv) — replay it \
                   later with tm2c-check.")
  in
  let witness =
    Arg.(value & opt (some string) None
         & info [ "witness" ] ~docv:"FILE"
             ~doc:"With --check: on failure, also write the checker verdict \
                   and violation witness to $(docv).")
  in
  let duration =
    Arg.(value & opt float 50.0 & info [ "duration" ] ~doc:"Virtual milliseconds.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed.") in
  let balance =
    Arg.(value & opt int 20 & info [ "balance" ] ~doc:"Bank: percent balance ops.")
  in
  let accounts =
    Arg.(value & opt int 1024 & info [ "accounts" ] ~doc:"Bank: number of accounts.")
  in
  let buckets =
    Arg.(value & opt int 64 & info [ "buckets" ] ~doc:"Hash table: buckets.")
  in
  let updates =
    Arg.(value & opt int 20 & info [ "updates" ] ~doc:"Percent update operations.")
  in
  let elastic =
    Arg.(value & opt elastic_conv `Normal
         & info [ "elastic" ] ~doc:"List: elastic mode (normal, early, read).")
  in
  let size =
    Arg.(value & opt int 512 & info [ "size" ] ~doc:"Initial structure size.")
  in
  let input_kb =
    Arg.(value & opt int 1024 & info [ "input-kb" ] ~doc:"MapReduce: input KB.")
  in
  let chunk_kb =
    Arg.(value & opt int 8 & info [ "chunk-kb" ] ~doc:"MapReduce: chunk KB.")
  in
  let doc = "Run a TM2C workload on the simulated many-core" in
  Cmd.v (Cmd.info "tm2c-sim" ~doc)
    Term.(
      const run $ bench $ platform $ cm $ cores $ service $ multitask $ eager
      $ fault_plan $ timeout_ns $ lease_ns $ replicas $ watchdog_ms $ trace
      $ trace_out $ json $ perfetto $ metrics_out $ metrics_window_ms
      $ self_profile $ check $ history $ witness
      $ duration $ seed $ balance $ accounts $ buckets $ updates $ elastic
      $ size $ input_kb $ chunk_kb)

let () = exit (Cmd.eval cmd)
