(* Smoke-target validator: parse an exported results file and require
   the metric families the observability layer promises — including the
   schema-v2 phase attribution, time-series, and trace-ring sections —
   and check the phase-accounting invariant: per core, the committed
   phase sums equal the total committed-attempt time (1e-6 relative),
   and the time-series shape: n_windows window-end times and as many
   values in every channel.
   Exits non-zero (failwith) when the export is malformed, incomplete,
   or out of tolerance.

   Accepts both shapes: a harness export ({schema_version, scale,
   experiments: [{runs: [...]}]}) and a single tm2c-sim --json run
   record (the run object itself, recognized by its "config" field). *)

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

let () =
  let path = Sys.argv.(1) in
  let v = Json.of_file path in
  (match Json.member "tool" v with
  | Some (Json.String "tm2c-lint") ->
      validate_lint path v;
      exit 0
  | _ -> ());
  let fail fmt = Printf.ksprintf (fun m -> failwith (path ^ ": " ^ m)) fmt in
  let require doc p =
    if Json.path p doc = None then fail "missing %s" (String.concat "." p)
  in
  (* Collect every run in the file. *)
  let runs =
    match Json.member "experiments" v with
    | Some (Json.List exps) ->
        require v [ "scale" ];
        (* v2 exports (no "faults" section) are still accepted; the
           faults rules below only run on runs that carry the section,
           which v3 made mandatory and v4 extended. *)
        (match Json.member "schema_version" v with
        | Some (Json.Int (2 | 3 | 4 | 5 | 6)) -> ()
        | Some (Json.Int n) -> fail "schema_version %d, expected 2..6" n
        | _ -> fail "missing schema_version");
        List.concat_map
          (fun e ->
            match Json.member "runs" e with
            | Some (Json.List rs) -> rs
            | _ -> fail "experiment without runs")
          exps
    | Some _ -> fail "experiments is not a list"
    | None ->
        if Json.member "config" v = None then
          fail "neither a harness export nor a run record";
        [ v ]
  in
  (match runs with [] -> fail "no runs" | _ -> ());
  let first_run = List.hd runs in
  List.iter (require first_run)
    [
      [ "config"; "policy" ];
      [ "result"; "commits" ];
      [ "result"; "aborts" ];
      [ "cores" ];
      [ "network"; "sent" ];
      [ "network"; "latency_ns"; "count" ];
      [ "network"; "latency_ns"; "sum" ];
      [ "dtm" ];
      [ "aborts"; "by_conflict"; "RAW" ];
      [ "aborts"; "by_conflict"; "WAW" ];
      [ "aborts"; "by_conflict"; "WAR" ];
      [ "aborts"; "by_conflict"; "STATUS" ];
      (* v2 additions *)
      [ "phases"; "enabled" ];
      [ "phases"; "names" ];
      [ "phases"; "committed" ];
      [ "phases"; "aborted" ];
      [ "trace"; "dropped" ];
      [ "trace"; "capacity" ];
      [ "timeseries"; "window_ns" ];
      [ "timeseries"; "t_ns" ];
      [ "timeseries"; "channels"; "commits"; "values" ];
      [ "timeseries"; "channels"; "queue_depth_mean"; "values" ];
    ];
  (* v3+ faults section: mandatory when the export is schema v3 or v4
     (single run records always carry it), checked for internal
     consistency on every run that has it. *)
  (match Json.member "schema_version" v with
  | Some (Json.Int (3 | 4)) | None ->
      List.iter (require first_run)
        [
          [ "faults"; "plan" ];
          [ "faults"; "injected" ];
          [ "faults"; "resends" ];
          [ "faults"; "leases_reclaimed" ];
        ]
  | _ -> ());
  (match Json.member "schema_version" v with
  | Some (Json.Int (4 | 5 | 6)) ->
      List.iter (require first_run)
        [
          [ "faults"; "replicas" ];
          [ "faults"; "replicated" ];
          [ "faults"; "failovers" ];
          [ "faults"; "stale_rejections" ];
          [ "faults"; "cache_evicted" ];
          [ "wedged" ];
        ]
  | _ -> ());
  (* v5: quantile sketches replace the histograms, the trace section
     carries the checker sink's high-water mark, and every run gains a
     "metrics" section — the flight recorder's final snapshot. *)
  (match Json.member "schema_version" v with
  | Some (Json.Int (5 | 6)) | None ->
      List.iter (require first_run)
        [
          [ "network"; "latency_ns"; "p999" ];
          [ "network"; "latency_ns"; "rel_error" ];
          [ "trace"; "sink_high_water" ];
          [ "metrics"; "window_ns" ];
          [ "metrics"; "n_windows" ];
          [ "metrics"; "counters"; "commits"; "total" ];
          [ "metrics"; "counters"; "commits"; "windowed_sum" ];
          [ "metrics"; "sketches"; "commit_latency_ns"; "p99" ];
          [ "metrics"; "events" ];
          [ "metrics"; "host_profile"; "wheel"; "seconds" ];
        ]
  | _ -> ());
  (* v6: the open-loop section (admission / shedding / goodput) and the
     horizon flag. *)
  (match Json.member "schema_version" v with
  | Some (Json.Int 6) | None ->
      List.iter (require first_run)
        [
          [ "result"; "horizon_hit" ];
          [ "openloop"; "policy" ];
          [ "openloop"; "offered" ];
          [ "openloop"; "e2e_latency_ns"; "p999" ];
        ]
  | _ -> ());
  (* Open-loop accounting invariants, on every run carrying the
     section: every offered arrival is either admitted or shed (none
     vanish), admitted work is either executed or expired on the queue
     (the remainder is the drain backlog), and goodput <= completed <=
     executed (a request completes at most once, counted good only
     within its deadline). *)
  List.iteri
    (fun ri run ->
      match Json.member "openloop" run with
      | None -> ()
      | Some o ->
          let count k =
            match Option.bind (Json.member k o) Json.to_int_opt with
            | Some n when n >= 0 -> n
            | Some n -> fail "run %d: openloop.%s negative (%d)" ri k n
            | None -> fail "run %d: openloop.%s missing or not an integer" ri k
          in
          let offered = count "offered"
          and admitted = count "admitted"
          and shed = count "shed"
          and expired = count "expired"
          and executed = count "executed"
          and completed = count "completed"
          and goodput = count "goodput" in
          if offered <> admitted + shed then
            fail "run %d: openloop.offered %d <> %d admitted + %d shed" ri
              offered admitted shed;
          if executed + expired > admitted then
            fail "run %d: openloop %d executed + %d expired > %d admitted" ri
              executed expired admitted;
          if goodput > completed then
            fail "run %d: openloop.goodput %d > completed %d" ri goodput
              completed;
          if completed > executed then
            fail "run %d: openloop.completed %d > executed %d" ri completed
              executed;
          ignore (count "wasted");
          ignore (count "retries");
          ignore (count "retry_exhausted");
          ignore (count "queue_peak"))
    runs;
  List.iteri
    (fun ri run ->
      match Json.member "faults" run with
      | None -> ()
      | Some f ->
          let count k =
            match Option.bind (Json.member k f) Json.to_int_opt with
            | Some n when n >= 0 -> n
            | Some n -> fail "run %d: faults.%s negative (%d)" ri k n
            | None -> fail "run %d: faults.%s missing or not an integer" ri k
          in
          let injected = count "injected" in
          (* A v4-era record carries the reorder/partition/server-crash
             counters in the breakdown; a v3 record predates them.
             Presence of "reordered" tells the two apart (harness
             exports and single-run records alike). *)
          let parts =
            count "dropped" + count "duplicated" + count "delayed"
            + count "crashes"
            +
            if Json.member "reordered" f <> None then
              count "reordered" + count "partitioned" + count "server_crashes"
            else 0
          in
          if injected <> parts then
            fail "run %d: faults.injected %d <> breakdown sum %d" ri injected
              parts;
          ignore (count "resends");
          ignore (count "absorbed");
          ignore (count "leases_reclaimed"))
    runs;
  (* Sketch-quantile monotonicity (v5), on every run: walk the whole
     record and require p50 <= p90 <= p99 (<= p999) of every sketch
     summary — any object carrying the quantile ladder. Estimates come
     from cumulative bucket walks at increasing ranks, so a violation
     means the sketch (or an exporter) is broken. *)
  let quantiles = ref 0 in
  let qnum obj k = Option.bind (Json.member k obj) Json.to_float_opt in
  let rec walk_quantiles ri ctx j =
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
                  fail "run %d: %s: quantile inversion %s (%.6g > %.6g)" ri ctx
                    label lo hi)
              ladder;
            incr quantiles
        | _ -> ());
        List.iter (fun (k, v) -> walk_quantiles ri (ctx ^ "." ^ k) v) fields
    | Json.List items -> List.iter (walk_quantiles ri ctx) items
    | _ -> ()
  in
  List.iteri (fun ri run -> walk_quantiles ri "run" run) runs;
  (* Flight-recorder invariants (v5), on every run that carries the
     metrics section: the sum of emitted windowed deltas telescopes to
     the counter's total (the windowed stream lost nothing), and the
     recorder's headline counters agree with the result section. *)
  List.iteri
    (fun ri run ->
      match Json.member "metrics" run with
      | None -> ()
      | Some m ->
          (match Json.member "counters" m with
          | Some (Json.Obj cs) ->
              List.iter
                (fun (name, c) ->
                  let num k =
                    match Option.bind (Json.member k c) Json.to_float_opt with
                    | Some f -> f
                    | None ->
                        fail "run %d: metrics.counters.%s missing %s" ri name k
                  in
                  let total = num "total" and windowed = num "windowed_sum" in
                  if
                    Float.abs (total -. windowed)
                    > tolerance *. Float.max (Float.abs total) 1.0
                  then
                    fail
                      "run %d: metrics.counters.%s windowed sum %.6g <> total \
                       %.6g (a window went missing)"
                      ri name windowed total)
                cs
          | _ -> fail "run %d: metrics.counters missing" ri);
          let counter_total name =
            match
              Option.bind
                (Json.path [ "counters"; name; "total" ] m)
                Json.to_float_opt
            with
            | Some f -> f
            | None -> fail "run %d: metrics.counters.%s missing" ri name
          in
          let result_int name =
            match
              Option.bind (Json.path [ "result"; name ] run) Json.to_int_opt
            with
            | Some n -> n
            | None -> fail "run %d: result.%s missing" ri name
          in
          List.iter
            (fun (cname, rname) ->
              let c = counter_total cname and r = result_int rname in
              if int_of_float c <> r then
                fail "run %d: metrics.counters.%s.total %.0f <> result.%s %d"
                  ri cname c rname r)
            [ ("ops", "ops"); ("commits", "commits"); ("aborts", "aborts") ];
          match Option.bind (Json.member "n_windows" m) Json.to_int_opt with
          | Some n when n >= 1 -> ()
          | Some n -> fail "run %d: metrics.n_windows %d < 1" ri n
          | None -> fail "run %d: metrics.n_windows missing" ri)
    runs;
  (* Time-series shape, on every run that has one: one window-end time
     and one value per channel for each of the n_windows windows. *)
  List.iteri
    (fun ri run ->
      match Json.member "timeseries" run with
      | None -> ()
      | Some ts ->
          let n =
            match Option.bind (Json.member "n_windows" ts) Json.to_int_opt with
            | Some n -> n
            | None -> fail "run %d: timeseries.n_windows missing" ri
          in
          let length_at what = function
            | Some (Json.List l) -> List.length l
            | _ -> fail "run %d: timeseries %s is not a list" ri what
          in
          let nt = length_at "t_ns" (Json.member "t_ns" ts) in
          if nt <> n then
            fail "run %d: timeseries has %d t_ns for %d windows" ri nt n;
          (match Json.member "channels" ts with
          | Some (Json.Obj cs) ->
              List.iter
                (fun (name, c) ->
                  let nv = length_at (name ^ " values") (Json.member "values" c) in
                  if nv <> n then
                    fail "run %d: timeseries channel %s has %d values for %d \
                          windows"
                      ri name nv n)
                cs
          | _ -> fail "run %d: timeseries.channels missing" ri))
    runs;
  (* Phase-accounting invariant, on every run in the file: the
     instrumentation charges each telescoping segment of a committed
     attempt to exactly one phase, so the sums must reconcile. *)
  let checked = ref 0 in
  List.iteri
    (fun ri run ->
      match Json.path [ "phases"; "committed" ] run with
      | Some (Json.List cores) ->
          List.iter
            (fun entry ->
              let num k =
                match Option.bind (Json.member k entry) Json.to_float_opt with
                | Some f -> f
                | None -> fail "run %d: core entry missing %s" ri k
              in
              let core =
                match Option.bind (Json.member "core" entry) Json.to_int_opt with
                | Some c -> c
                | None -> fail "run %d: core entry missing core id" ri
              in
              let total = num "total_attempt_ns" in
              let phases = num "phase_sum_ns" in
              if Float.abs (phases -. total) > tolerance *. Float.max total 1.0
              then
                fail
                  "run %d core %d: phase sums %.6f ns vs attempt total %.6f ns \
                   (relative error %.3e > %g)"
                  ri core phases total
                  (Float.abs (phases -. total) /. Float.max total 1.0)
                  tolerance;
              incr checked)
            cores
      | _ -> fail "run %d: phases.committed missing" ri)
    runs;
  Printf.printf
    "%s: valid export (%d runs, %d per-core phase sums within %g, %d quantile \
     ladders monotone)\n"
    path (List.length runs) !checked tolerance !quantiles
