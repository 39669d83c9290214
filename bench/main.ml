(* Benchmark harness entry point: regenerates every table and figure
   of the paper's evaluation (Sections 5-7). Run
   [dune exec bench/main.exe -- --list] for the index, or pass
   experiment ids ("fig5c", "all", "micro", ...). *)

open Cmdliner

let run_bench ids full smoke json check list_only =
  if list_only then begin
    print_endline "Available experiments:";
    List.iter
      (fun e ->
        Printf.printf "  %-10s %s\n" e.Tm2c_harness.Harness.id
          e.Tm2c_harness.Harness.description)
      Tm2c_harness.Harness.all;
    print_endline "  micro      Bechamel micro-benchmarks of core primitives";
    print_endline "  ratio      host events/s at 512 vs 96 cores on the 16x16 mesh"
  end
  else begin
    let scale =
      if full then Tm2c_harness.Exp.full
      else if smoke then Tm2c_harness.Exp.smoke
      else Tm2c_harness.Exp.quick
    in
    Printf.printf "TM2C benchmark harness (scale: %s)\n%!" scale.Tm2c_harness.Exp.label;
    let ids = if ids = [] then [ "all"; "micro" ] else ids in
    let micro = List.mem "micro" ids and ratio = List.mem "ratio" ids in
    let ids = List.filter (fun id -> id <> "micro" && id <> "ratio") ids in
    let failures =
      if ids <> [] then
        Tm2c_harness.Harness.run_ids ?json ~check ids scale
      else 0
    in
    if micro then Micro.run ();
    if ratio then begin
      (* Smoke scale only shows that the measurement runs. *)
      let runs, duration_ms = if smoke then (1, 1.0) else (10, 20.0) in
      Ratio.run ~runs ~duration_ms
    end;
    if failures > 0 then begin
      Printf.eprintf "\n%d checker violation(s) — see above\n%!" failures;
      exit 1
    end
  end

let ids_arg =
  let doc =
    "Experiment ids to run (e.g. fig5a). Default: all + micro. 'micro' runs \
     the Bechamel micro-benchmarks; 'ratio' times the hash-table mix on the \
     16x16 mesh at 96 and 512 cores (10 alternating pairs of 20 virtual ms; \
     one pair of 1 ms with --smoke) and prints the 512/96 events/s ratio."
  in
  Arg.(value & pos_all string [] & info [] ~docv:"EXPERIMENT" ~doc)

let full_arg =
  let doc = "Run at paper scale (longer windows, bigger structures)." in
  Arg.(value & flag & info [ "full" ] ~doc)

let smoke_arg =
  let doc = "Run at CI smoke scale (seconds per experiment)." in
  Arg.(value & flag & info [ "smoke" ] ~doc)

let json_arg =
  let doc =
    "Write results and observability metrics (per-core counters, abort \
     causality, network latency histogram, DTM queue depths, flight-recorder \
     snapshot and its per-window time series) as JSON to $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let check_arg =
  let doc =
    "Check every run's event history online through the bounded-memory \
     streaming checker (serializability + opacity, lock protocol, \
     liveness), with a liveness watchdog; exit nonzero on any violation or \
     wedged run. For the batch oracle's report, record a run with \
     tm2c-sim --history and replay it with tm2c-check --streaming=false."
  in
  Arg.(value & flag & info [ "check" ] ~doc)

let list_arg =
  let doc = "List available experiments and exit." in
  Arg.(value & flag & info [ "list" ] ~doc)

let cmd =
  let doc = "Regenerate the tables and figures of the TM2C paper (EuroSys 2012)" in
  Cmd.v
    (Cmd.info "tm2c-bench" ~doc)
    Term.(
      const run_bench $ ids_arg $ full_arg $ smoke_arg $ json_arg $ check_arg
      $ list_arg)

let () = exit (Cmd.eval cmd)
