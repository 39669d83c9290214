(* Smoke-target validator: parse an exported results file and require,
   on every run, each section the exporter writes — phase attribution,
   faults, open loop, flight-recorder metrics and time series, trace
   ring — and check their invariants: open-loop and fault accounting,
   monotone quantile ladders, windowed counter sums that telescope to
   their totals, the time-series shape (n_windows window-end times and
   as many values in every channel) and, per core, committed phase sums
   equal to the total committed-attempt time (1e-6 relative).
   Exits non-zero (failwith) when the export is malformed, incomplete,
   or out of tolerance.

   Accepts both shapes: a harness export ({schema_version: 6, scale,
   experiments: [{runs: [...]}]}) and a single tm2c-sim --json run
   record (the run object itself, recognized by its "config" field,
   with no schema_version). A tm2c-lint --json report is recognized by
   its "tool" field. *)

open Tm2c_harness

let tolerance = 1e-6

(* tm2c-lint --json reports ("tool":"tm2c-lint"): the summary must
   reconcile with the findings list, every finding carries its anchor
   and rule, waived findings carry their justification, and inventory
   entries carry a known status. *)
let validate_lint path v =
  let fail fmt = Printf.ksprintf (fun m -> failwith (path ^ ": " ^ m)) fmt in
  (match Json.member "version" v with
  | Some (Json.Int 1) -> ()
  | _ -> fail "lint report: version 1 expected");
  let int_at p =
    match Option.bind (Json.path p v) Json.to_int_opt with
    | Some n -> n
    | None -> fail "lint report: missing %s" (String.concat "." p)
  in
  let total = int_at [ "summary"; "total" ]
  and active = int_at [ "summary"; "active" ]
  and waived = int_at [ "summary"; "waived" ] in
  if total <> active + waived then
    fail "lint report: summary total %d <> %d active + %d waived" total active
      waived;
  let list_at k =
    match Json.member k v with
    | Some (Json.List l) -> l
    | _ -> fail "lint report: %s list missing" k
  in
  let findings = list_at "findings" in
  if List.length findings <> total then
    fail "lint report: %d findings in the list, summary says %d"
      (List.length findings) total;
  let n_waived = ref 0 in
  List.iteri
    (fun i f ->
      let str k =
        match Json.member k f with
        | Some (Json.String s) when s <> "" -> s
        | _ -> fail "lint report: finding %d missing %s" i k
      in
      ignore (str "file");
      ignore (str "rule");
      ignore (str "message");
      (match Option.bind (Json.member "line" f) Json.to_int_opt with
      | Some n when n >= 0 -> ()
      | _ -> fail "lint report: finding %d missing line" i);
      match Json.member "waived" f with
      | Some (Json.Bool true) ->
          incr n_waived;
          ignore (str "justification")
      | Some (Json.Bool false) -> ()
      | _ -> fail "lint report: finding %d missing waived flag" i)
    findings;
  if !n_waived <> waived then
    fail "lint report: %d waived findings in the list, summary says %d"
      !n_waived waived;
  let inventory = list_at "inventory" in
  List.iteri
    (fun i e ->
      let str k =
        match Json.member k e with
        | Some (Json.String s) when s <> "" -> s
        | _ -> fail "lint report: inventory entry %d missing %s" i k
      in
      ignore (str "file");
      ignore (str "name");
      ignore (str "kind");
      match str "status" with
      | "violation" | "const-table" -> ()
      | "allowlisted" -> ignore (str "justification")
      | s -> fail "lint report: inventory entry %d has unknown status %s" i s)
    inventory;
  Printf.printf
    "%s: valid tm2c-lint report (%d findings, %d active, %d inventory \
     entries)\n"
    path total active (List.length inventory)

(* Every path a run record carries ({!Report.run_json}), in a harness
   export and a tm2c-sim --json record alike. *)
let required =
  [
    [ "config"; "policy" ];
    [ "result"; "commits" ];
    [ "result"; "aborts" ];
    [ "result"; "horizon_hit" ];
    [ "cores" ];
    [ "network"; "sent" ];
    [ "network"; "latency_ns"; "count" ];
    [ "network"; "latency_ns"; "sum" ];
    [ "network"; "latency_ns"; "p999" ];
    [ "network"; "latency_ns"; "rel_error" ];
    [ "dtm" ];
    [ "aborts"; "by_conflict"; "RAW" ];
    [ "aborts"; "by_conflict"; "WAW" ];
    [ "aborts"; "by_conflict"; "WAR" ];
    [ "aborts"; "by_conflict"; "STATUS" ];
    [ "faults"; "plan" ];
    [ "faults"; "replicas" ];
    [ "openloop"; "policy" ];
    [ "openloop"; "e2e_latency_ns"; "p999" ];
    [ "wedged" ];
    [ "phases"; "enabled" ];
    [ "phases"; "names" ];
    [ "phases"; "aborted" ];
    [ "trace"; "dropped" ];
    [ "trace"; "capacity" ];
    [ "trace"; "sink_high_water" ];
    [ "metrics"; "window_ns" ];
    [ "metrics"; "sketches"; "commit_latency_ns"; "p99" ];
    [ "metrics"; "events" ];
    [ "metrics"; "host_profile"; "wheel"; "seconds" ];
    [ "timeseries"; "window_ns" ];
    [ "timeseries"; "channels"; "commits"; "values" ];
    [ "timeseries"; "channels"; "queue_depth_mean"; "values" ];
  ]

(* One run's invariants. Returns its quantile ladders and per-core
   phase sums checked. *)
let validate_run path ri run =
  let fail fmt =
    Printf.ksprintf (fun m -> failwith (Printf.sprintf "%s: run %d: %s" path ri m)) fmt
  in
  let where p = String.concat "." p in
  List.iter (fun p -> if Json.path p run = None then fail "missing %s" (where p)) required;
  let get conv what p =
    match Option.bind (Json.path p run) conv with
    | Some x -> x
    | None -> fail "%s missing or not %s" (where p) what
  in
  let int_at = get Json.to_int_opt "an integer"
  and float_at = get Json.to_float_opt "a number"
  and list_at = get (function Json.List l -> Some l | _ -> None) "a list"
  and fields_at = get (function Json.Obj fs -> Some fs | _ -> None) "an object" in
  let count p =
    let n = int_at p in
    if n < 0 then fail "%s negative (%d)" (where p) n;
    n
  in
  (* Open-loop accounting: every offered arrival is either admitted or
     shed (none vanish), admitted work is either executed or expired on
     the queue (the remainder is the drain backlog), and goodput <=
     completed <= executed (a request completes at most once, counted
     good only within its deadline). *)
  let ol k = count [ "openloop"; k ] in
  let offered = ol "offered"
  and admitted = ol "admitted"
  and shed = ol "shed"
  and expired = ol "expired"
  and executed = ol "executed"
  and completed = ol "completed"
  and goodput = ol "goodput" in
  if offered <> admitted + shed then
    fail "openloop.offered %d <> %d admitted + %d shed" offered admitted shed;
  if executed + expired > admitted then
    fail "openloop %d executed + %d expired > %d admitted" executed expired admitted;
  if goodput > completed then fail "openloop.goodput %d > completed %d" goodput completed;
  if completed > executed then
    fail "openloop.completed %d > executed %d" completed executed;
  List.iter (fun k -> ignore (ol k)) [ "wasted"; "retries"; "retry_exhausted"; "queue_peak" ];
  (* Faults: the injected total is the sum of the seven kinds. *)
  let fc k = count [ "faults"; k ] in
  let injected = fc "injected"
  and parts =
    List.fold_left
      (fun acc k -> acc + fc k)
      0
      [ "dropped"; "duplicated"; "delayed"; "reordered"; "partitioned"; "crashes"; "server_crashes" ]
  in
  if injected <> parts then fail "faults.injected %d <> breakdown sum %d" injected parts;
  List.iter
    (fun k -> ignore (fc k))
    [
      "resends"; "absorbed"; "leases_reclaimed"; "replicated"; "failovers"; "stale_rejections";
      "cache_evicted";
    ];
  (* Sketch-quantile monotonicity: walk the whole record and require
     p50 <= p90 <= p99 (<= p999) of every sketch summary — any object
     carrying the quantile ladder. Estimates come from cumulative
     bucket walks at increasing ranks, so a violation means the sketch
     (or an exporter) is broken. *)
  let quantiles = ref 0 in
  let qnum obj k = Option.bind (Json.member k obj) Json.to_float_opt in
  let rec walk_quantiles ctx j =
    match j with
    | Json.Obj fields ->
        (match (qnum j "p50", qnum j "p90", qnum j "p99") with
        | Some p50, Some p90, Some p99 ->
            let ladder =
              match qnum j "p999" with
              | Some p999 -> [ (p50, p90, "p50<=p90"); (p90, p99, "p90<=p99"); (p99, p999, "p99<=p999") ]
              | None -> [ (p50, p90, "p50<=p90"); (p90, p99, "p90<=p99") ]
            in
            List.iter
              (fun (lo, hi, label) ->
                if lo > hi then
                  fail "%s: quantile inversion %s (%.6g > %.6g)" ctx label lo hi)
              ladder;
            incr quantiles
        | _ -> ());
        List.iter (fun (k, v) -> walk_quantiles (ctx ^ "." ^ k) v) fields
    | Json.List items -> List.iter (walk_quantiles ctx) items
    | _ -> ()
  in
  walk_quantiles "run" run;
  (* Flight recorder: the sum of emitted windowed deltas telescopes to
     each counter's total (the windowed stream lost nothing), and the
     headline counters agree with the result section. *)
  List.iter
    (fun (name, _) ->
      let c k = float_at [ "metrics"; "counters"; name; k ] in
      let total = c "total" and windowed = c "windowed_sum" in
      if Float.abs (total -. windowed) > tolerance *. Float.max (Float.abs total) 1.0 then
        fail "metrics.counters.%s windowed sum %.6g <> total %.6g (a window went missing)"
          name windowed total)
    (fields_at [ "metrics"; "counters" ]);
  List.iter
    (fun name ->
      let c = float_at [ "metrics"; "counters"; name; "total" ]
      and r = int_at [ "result"; name ] in
      if int_of_float c <> r then
        fail "metrics.counters.%s.total %.0f <> result.%s %d" name c name r)
    [ "ops"; "commits"; "aborts" ];
  let nw = int_at [ "metrics"; "n_windows" ] in
  if nw < 1 then fail "metrics.n_windows %d < 1" nw;
  (* Time-series shape: one window-end time and one value per channel
     for each of the n_windows windows. *)
  let n = int_at [ "timeseries"; "n_windows" ] in
  let nt = List.length (list_at [ "timeseries"; "t_ns" ]) in
  if nt <> n then fail "timeseries has %d t_ns for %d windows" nt n;
  List.iter
    (fun (name, _) ->
      let nv = List.length (list_at [ "timeseries"; "channels"; name; "values" ]) in
      if nv <> n then fail "timeseries channel %s has %d values for %d windows" name nv n)
    (fields_at [ "timeseries"; "channels" ]);
  (* Phase accounting: the instrumentation charges each telescoping
     segment of a committed attempt to exactly one phase, so per core
     the committed phase sums equal the attempt total. *)
  let cores = list_at [ "phases"; "committed" ] in
  List.iter
    (fun entry ->
      let num k =
        match Option.bind (Json.member k entry) Json.to_float_opt with
        | Some f -> f
        | None -> fail "core entry missing %s" k
      in
      let core =
        match Option.bind (Json.member "core" entry) Json.to_int_opt with
        | Some c -> c
        | None -> fail "core entry missing core id"
      in
      let total = num "total_attempt_ns" and phases = num "phase_sum_ns" in
      let err = Float.abs (phases -. total) /. Float.max total 1.0 in
      if err > tolerance then
        fail "core %d: phase sums %.6f ns vs attempt total %.6f ns (relative error %.3e > %g)"
          core phases total err tolerance)
    cores;
  (!quantiles, List.length cores)

let () =
  let path = Sys.argv.(1) in
  let v = Json.of_file path in
  (match Json.member "tool" v with
  | Some (Json.String "tm2c-lint") ->
      validate_lint path v;
      exit 0
  | _ -> ());
  let fail fmt = Printf.ksprintf (fun m -> failwith (path ^ ": " ^ m)) fmt in
  (* A harness export (schema 6) or a tm2c-sim --json run record. *)
  let runs =
    match Json.member "experiments" v with
    | Some (Json.List exps) ->
        if Json.member "scale" v = None then fail "missing scale";
        (match Json.member "schema_version" v with
        | Some (Json.Int 6) -> ()
        | Some (Json.Int n) -> fail "schema_version %d, expected 6" n
        | _ -> fail "missing schema_version");
        List.concat_map
          (fun e ->
            match Json.member "runs" e with
            | Some (Json.List rs) -> rs
            | _ -> fail "experiment without runs")
          exps
    | Some _ -> fail "experiments is not a list"
    | None ->
        if Json.member "config" v = None then fail "neither a harness export nor a run record";
        if Json.member "schema_version" v <> None then
          fail "a run record carries no schema_version";
        [ v ]
  in
  if runs = [] then fail "no runs";
  let quantiles, checked =
    List.fold_left
      (fun (q, c) (q', c') -> (q + q', c + c'))
      (0, 0)
      (List.mapi (validate_run path) runs)
  in
  Printf.printf
    "%s: valid export (%d runs, %d per-core phase sums within %g, %d quantile \
     ladders monotone)\n"
    path (List.length runs) checked tolerance quantiles
