(* Regression smoke tests of the experiment harness: every experiment
   must run end-to-end at a micro scale and print a table. Guards the
   figure-reproduction path itself against bitrot. *)

open Tm2c_harness

let micro_scale =
  {
    Exp.label = "micro";
    window_ns = 1.5e6;
    long_window_ns = 3e6;
    ht_buckets = 16;
    list_elems = 64;
    bank_accounts = 32;
    bank_accounts_5d = 64;
    mr_sizes_kb = [ 64 ];
  }

(* Run [f] with stdout captured; returns its result and the output. *)
let capturing_stdout f =
  Tmp.with_written ~suffix:".out"
    (fun oc ->
      let saved = Unix.dup Unix.stdout in
      flush stdout;
      Unix.dup2 (Unix.descr_of_out_channel oc) Unix.stdout;
      Fun.protect
        ~finally:(fun () ->
          flush stdout;
          Unix.dup2 saved Unix.stdout;
          Unix.close saved)
        f)
    (fun result path -> (result, In_channel.with_open_bin path In_channel.input_all))

let run_capturing id =
  let exp =
    match Harness.find id with
    | Some e -> e
    | None -> Alcotest.failf "experiment %s not registered" id
  in
  snd (capturing_stdout (fun () -> exp.Harness.run (Exp.v micro_scale)))

let test_experiment id () =
  let out = run_capturing id in
  Alcotest.(check bool)
    (id ^ " produced output") true
    (String.length out > 40);
  (* Every experiment prints at least one table with a header row. *)
  Alcotest.(check bool)
    (id ^ " printed numbers") true
    (String.exists (fun c -> c >= '0' && c <= '9') out)

(* Regression: Fig. 6(a) once reported the safety horizon (1e13 ns)
   as every MapReduce duration, because the service fibers never finish
   and the clock ran on to the horizon. Each duration must now be the
   instant the last worker finished, well inside the horizon. *)
let test_fig6a_durations () =
  List.iter
    (fun size_kb ->
      List.iter
        (fun total ->
          let r = Fig6.parallel_run (Exp.v micro_scale) ~size_kb ~total () in
          let what = Printf.sprintf "%d KB on %d cores" size_kb total in
          Alcotest.(check bool) (what ^ ": horizon not hit") false r.Tm2c_apps.Workload.horizon_hit;
          Alcotest.(check bool)
            (what ^ ": duration positive and below the horizon")
            true
            (r.Tm2c_apps.Workload.duration_ms > 0.0
            && r.Tm2c_apps.Workload.duration_ms < 1e13 /. 1e6))
        Fig6.fig6a_cores)
    micro_scale.Exp.mr_sizes_kb

(* One checked, exported run over every driver: [drive] and [drive_seq]
   (fig4b), the lock cells (fig5d), [run_to_completion] (fig6a),
   [Openloop.drive] (fig_overload) and the ablations, with the number
   of runs each experiment drives at this scale. Made once, for the two
   tests below. *)
let checked_counts =
  [ ("fig4b", 32); ("fig5d", 32); ("fig6a", 6); ("fig_overload", 11); ("ablations", 26) ]

let checked_export =
  lazy
    (Tmp.with_path ~suffix:".json" (fun json ->
         let failures, _ =
           capturing_stdout (fun () ->
               Harness.run_ids ~json ~check:true (List.map fst checked_counts) micro_scale)
         in
         (failures, Json.of_file json)))

let exported_runs doc =
  List.map
    (fun e ->
      ( Option.value (Option.bind (Json.path [ "id" ] e) Json.to_string_opt) ~default:"?",
        Option.fold ~none:[] ~some:Json.to_list_exn (Json.path [ "runs" ] e) ))
    (Option.fold ~none:[] ~some:Json.to_list_exn (Json.path [ "experiments" ] doc))

(* Regression: with --json and --check, fig4b (whose sequential
   baseline runs no transactions) and fig6a (whose MapReduce runs
   drain, one chunk computation spanning many watchdog windows) once
   never finished — the recorder's and the sampler's ticks kept each
   other alive — and the watchdog took both for wedges. *)
let test_json_check_terminates () =
  let failures, doc = Lazy.force checked_export in
  Alcotest.(check int) "no violations, no wedged runs" 0 failures;
  let ids = List.map fst (exported_runs doc) in
  Alcotest.(check bool)
    "both experiments exported" true
    (List.mem "fig4b" ids && List.mem "fig6a" ids)

(* Every driven cell goes through the experiment's runner: each
   exported run carries the instrumentation the runner installs, and
   each experiment exports as many runs as it drives. *)
let test_every_cell_instrumented () =
  let runs = exported_runs (snd (Lazy.force checked_export)) in
  Alcotest.(check (list (pair string int)))
    "runs exported per experiment" checked_counts
    (List.map (fun (id, rs) -> (id, List.length rs)) runs);
  List.iter
    (fun (id, rs) ->
      List.iteri
        (fun i run ->
          let on path = Json.path path run = Some (Json.Bool true) in
          let what = Printf.sprintf "%s run %d: " id i in
          Alcotest.(check bool) (what ^ "trace enabled") true (on [ "trace"; "enabled" ]);
          Alcotest.(check bool) (what ^ "phases enabled") true (on [ "phases"; "enabled" ]);
          Alcotest.(check bool) (what ^ "metrics section") true
            (Json.member "metrics" run <> None))
        rs)
    runs

let test_registry () =
  let ids = List.map (fun e -> e.Harness.id) Harness.all in
  Alcotest.(check int) "18 experiments registered" 18 (List.length ids);
  List.iter
    (fun required ->
      Alcotest.(check bool) (required ^ " present") true (List.mem required ids))
    [
      "settings"; "fig4a"; "fig4b"; "fig4c"; "fig5a"; "fig5b"; "fig5c"; "fig5d";
      "fig6a"; "fig6b"; "fig7a"; "fig7b"; "fig8a"; "fig8b"; "fig8c"; "fig8d";
      "ablations"; "fig_overload";
    ]

let test_unknown_rejected () =
  Alcotest.check_raises "unknown id rejected"
    (Invalid_argument "unknown experiment \"nope\"") (fun () ->
      ignore (Harness.run_ids [ "nope" ] micro_scale))

(* The benchmark executable checks its ids before it runs anything:
   experiment ids, "all" and "ratio" pass through, and the first
   unknown id is named, whatever comes before it. *)
let test_check_ids () =
  let result = Alcotest.(result (list string) string) in
  let ok = [ "fig8a"; "all"; "ratio"; "fig_overload" ] in
  Alcotest.check result "known ids" (Ok ok) (Harness.check_ids ok);
  Alcotest.check result "no ids" (Ok []) (Harness.check_ids []);
  Alcotest.check result "first unknown id named"
    (Error "unknown experiment \"bogus\"")
    (Harness.check_ids [ "fig8a"; "bogus"; "micro" ])

(* The run spec's printer against its parser: the flags [Shape.args]
   prints for a spec parse back to that spec. The fuzz shapes as the
   fuzzer runs them (seeded, hardened, faulted, replicated), its wedge
   shape, and a spread over every other flag value: SCC settings 0-4,
   SCC800, the Opteron, three scaled meshes (the largest allowed among
   them), each contention manager and elastic mode, the multitasked
   and sized-service deployments, MapReduce, and a server crash with
   one replica. *)
let test_shape_round_trip () =
  let d = Shape.default in
  let plan spec =
    match Tm2c_noc.Fault.of_spec spec with
    | Ok p -> Some p
    | Error m -> Alcotest.failf "fault plan %s: %s" spec m
  in
  let fuzz =
    [
      { d with bench = Counter; cores = 16; duration_ms = 1.0 };
      { d with bench = Bank; cores = 48; duration_ms = 1.0 };
      { d with bench = Hashtable; cores = 16; duration_ms = 1.0 };
      { d with bench = Hashtable; cores = 16; duration_ms = 1.0; eager = true };
      { d with bench = List_bench; cores = 16; size = 64; duration_ms = 2.0 };
      {
        d with
        bench = List_bench;
        cores = 16;
        size = 64;
        duration_ms = 2.0;
        elastic = `Elastic_early;
      };
    ]
  in
  let faulted replicas spec s =
    {
      s with
      Shape.seed = 41;
      fault_plan = plan spec;
      timeout_ns = 60_000.0;
      lease_ns = 250_000.0;
      replicas;
    }
  in
  let wedge =
    {
      d with
      bench = Counter;
      cores = 16;
      cm = Tm2c_core.Cm.Backoff_retry;
      duration_ms = 20.0;
      seed = 1;
      fault_plan = plan "crash=3@100000";
    }
  in
  let specs =
    fuzz
    @ List.map
        (faulted 0
           "drop=0.005,dup=0.01,delay=0.02@1500,reorder=0.05@2500,stall=0@3e5+2e5,crash=3@5e5,part=1-4@1e5+2e5")
        fuzz
    @ List.map (faulted 1 "scrash=2@3e5") fuzz
    @ [ wedge; { wedge with lease_ns = 250_000.0 } ]
    @ List.map (fun i -> { d with platform = Tm2c_noc.Platform.scc_setting i }) [ 0; 1; 2; 3; 4 ]
    @ [ { d with platform = Tm2c_noc.Platform.scc800 }; { d with platform = Tm2c_noc.Platform.opteron } ]
    @ [
        {
          d with
          bench = Hashtable;
          platform = Tm2c_noc.Platform.scc_mesh ~cols:16 ~rows:16;
          cores = 512;
          duration_ms = 2.0;
        };
        { d with platform = Tm2c_noc.Platform.scc_mesh ~cols:3 ~rows:1; cores = 6 };
        { d with platform = Tm2c_noc.Platform.scc_mesh ~cols:32 ~rows:64; cores = 96 };
      ]
    @ List.map (fun cm -> { d with cm }) Tm2c_core.Cm.all
    @ List.map
        (fun elastic -> { d with bench = List_bench; elastic })
        [ `Normal; `Elastic_early; `Elastic_read ]
    @ [
        { d with bench = Hashtable; multitask = true; duration_ms = 3.0 };
        { d with cores = 24; service = Some 4; updates = 50; buckets = 32; size = 128 };
        { d with bench = Mapreduce; cores = 8; input_kb = 256; chunk_kb = 4 };
        { d with accounts = 16; balance = 50; duration_ms = 0.005; fault_plan = plan "none" };
        {
          d with
          bench = Counter;
          cores = 16;
          duration_ms = 4.0;
          fault_plan = plan "scrash=2@1e6";
          timeout_ns = 60_000.0;
          lease_ns = 250_000.0;
          replicas = 1;
        };
      ]
  in
  let cmd = Cmdliner.Cmd.v (Cmdliner.Cmd.info "tm2c-sim") Shape.term in
  List.iter
    (fun s ->
      let args = Shape.args s in
      let line = String.concat " " args in
      match Cmdliner.Cmd.eval_value ~argv:(Array.of_list ("tm2c-sim" :: args)) cmd with
      | Ok (`Ok parsed) ->
          Alcotest.(check (list string)) line args (Shape.args parsed);
          Alcotest.(check bool) (line ^ ": same spec") true (parsed = s)
      | Ok (`Help | `Version) | Error _ -> Alcotest.failf "tm2c-sim %s does not parse" line)
    specs

(* A spec the runtime cannot build, or a malformed flag value, is a
   usage error naming the flag, not an exception out of
   [Runtime.create] at run time. *)
let test_shape_impossible () =
  let cmd = Cmdliner.Cmd.v (Cmdliner.Cmd.info "tm2c-sim") Shape.term in
  List.iter
    (fun (args, flag) ->
      let line = String.concat " " args in
      let buf = Buffer.create 256 in
      let err = Format.formatter_of_buffer buf in
      let res = Cmdliner.Cmd.eval_value ~err ~argv:(Array.of_list ("tm2c-sim" :: args)) cmd in
      Format.pp_print_flush err ();
      match res with
      | Error (`Parse | `Term) ->
          let msg = Buffer.contents buf in
          Alcotest.(check bool)
            (Printf.sprintf "%s: message names %s (%S)" line flag msg)
            true
            (String.starts_with ~prefix:("tm2c-sim: " ^ flag ^ " ") msg
            || String.starts_with ~prefix:("tm2c-sim: option '" ^ flag ^ "': ") msg)
      | Error `Exn -> Alcotest.failf "tm2c-sim %s raised" line
      | Ok _ -> Alcotest.failf "tm2c-sim %s parsed" line)
    [
      ([ "--bench"; "hashtable"; "--cores"; "64"; "--platform"; "opteron" ], "--cores");
      ([ "--cores"; "1" ], "--cores");
      ([ "--cores"; "16"; "--service"; "16" ], "--service");
      ([ "--replicas"; "2" ], "--replicas");
      ([ "--platform"; "mesh:0x4" ], "--platform");
      ([ "--platform"; "mesh:16x" ], "--platform");
      ([ "--platform"; "mesh:16x16x2" ], "--platform");
      ([ "--platform"; "mesh:+4x4" ], "--platform");
      ([ "--platform"; "mesh:64x64" ], "--platform");
      ([ "--platform"; "mesh:2x2"; "--cores"; "16" ], "--cores");
    ]

(* The cheap experiments run as part of the default suite; the rest
   are marked slow (alcotest still runs them by default, but they can
   be excluded with `-q`). *)
let suite =
  [
    ("registry complete", `Quick, test_registry);
    ("unknown experiment rejected", `Quick, test_unknown_rejected);
    ("experiment ids checked before running", `Quick, test_check_ids);
    ("run spec flags round-trip", `Quick, test_shape_round_trip);
    ("impossible run specs are usage errors", `Quick, test_shape_impossible);
    ("settings", `Quick, test_experiment "settings");
    ("fig8a", `Quick, test_experiment "fig8a");
    ("fig6a durations end before the horizon", `Quick, test_fig6a_durations);
    ("fig4a", `Slow, test_experiment "fig4a");
    ("fig4c", `Slow, test_experiment "fig4c");
    ("fig5a", `Slow, test_experiment "fig5a");
    ("fig5c", `Slow, test_experiment "fig5c");
    ("fig6a", `Slow, test_experiment "fig6a");
    ("fig4b + fig6a with --json --check terminate", `Slow, test_json_check_terminates);
    ("every driven cell is instrumented", `Slow, test_every_cell_instrumented);
    ("fig7a", `Slow, test_experiment "fig7a");
    ("fig8c", `Slow, test_experiment "fig8c");
    ("ablations", `Slow, test_experiment "ablations");
  ]
