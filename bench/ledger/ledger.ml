(* The performance ledger: one benchmark, four workloads, host and
   virtual end-to-end metrics, and a traced per-layer breakdown.

   Every measured run happens in a fresh child process (this same
   executable, "child" mode), one at a time, so peak heap is per run
   and no run inherits another's heap. Modes:

   - ledger.exe [--seed N] [--reps R] [--out FILE] [--workload W]...
       the full ledger: per workload, several set-up-only runs, R timed
       runs and one traced run; prints every metric with its median,
       quartiles and sample count, and writes FILE (ledger.json).
   - ledger.exe --workload W --seed N --seconds S --trace 0|1
       one benchmark run of one workload for about S seconds; the last
       line of stdout is a JSON object with the end-to-end metrics
       (--trace 0) or the per-layer metrics (--trace 1).
   - ledger.exe compare PARENT.json CHANGE.json [--benchmark FILE]
       judge a change against its parent, metric by metric.
   - ledger.exe --smoke [--benchmark FILE]
       the self-test: every workload at 1/50 length, one timed and one
       traced run, every metric of BENCHMARK.json emitted and finite.

   The exit status is nonzero when a checker fails, a virtual result
   differs between runs of the same seed, or a percentile has fewer
   than 10 samples beyond it. *)

module Json = Tm2c_harness.Json

let fail fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("ledger: " ^ m);
      exit 2)
    fmt

(* ---- Child processes --------------------------------------------------- *)

let mode_name = function
  | Work.Timed -> "timed"
  | Work.Traced -> "traced"
  | Work.Setup_only -> "setup"

let mode_of_name = function
  | "timed" -> Some Work.Timed
  | "traced" -> Some Work.Traced
  | "setup" -> Some Work.Setup_only
  | _ -> None

let length_name = function Work.Full -> "full" | Work.Smoke -> "smoke"

let child_main = function
  | [ name; seed; mode; length ] -> (
      match (int_of_string_opt seed, mode_of_name mode) with
      | Some seed, Some mode ->
          let length = if length = "smoke" then Work.Smoke else Work.Full in
          Work.print_outcome (Work.run ~name ~seed ~mode length)
      | _ -> fail "child: bad arguments %s %s" seed mode)
  | args -> fail "child: bad arguments %s" (String.concat " " args)

(* Run one child to completion and return its outcome. *)
let spawn ~name ~seed ~length mode =
  let exe = Sys.executable_name in
  let args =
    [| exe; "child"; name; string_of_int seed; mode_name mode; length_name length |]
  in
  flush_all ();
  let ic = Unix.open_process_args_in exe args in
  let text = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> (
      match Work.parse_outcome text with
      | Ok o -> o
      | Error m -> fail "%s %s run: %s" name (mode_name mode) m)
  | Unix.WEXITED n -> fail "%s %s run exited with code %d" name (mode_name mode) n
  | Unix.WSIGNALED n | Unix.WSTOPPED n ->
      fail "%s %s run stopped by signal %d" name (mode_name mode) n

(* ---- One workload's runs ------------------------------------------------- *)

type runs = {
  workload : string;
  warmup : Work.outcome list;
      (* loads the executable, the page cache and the calibration
         kernel's working set; checked, not sampled *)
  timed : Work.outcome list;
  companions : Work.outcome list list;
      (* per timed run, the set-up-only runs made right before it *)
  traced : Work.outcome list;
  kernel_s : float list;  (* every calibration-kernel time, in order *)
}

(* After one warm-up run, [Reps (timed, traced)]: fixed counts.
   [Budget (seconds, traced)]: another run while the median run so far
   would still end within [seconds] of the start, warm-up included (at
   least one of each kind needed), so the samples span the whole budget
   and none runs past it. With [traced], traced and timed runs
   alternate, traced first, so the traced run's overhead ratio has a
   timed reference measured under the same conditions. *)
type plan = Reps of int * int | Budget of float * bool

(* Set-up-only runs beside each timed run; each set-up sample is the
   median of theirs. *)
let companions = function Work.Full -> 5 | Work.Smoke -> 1

(* Host times in reference seconds (Calib): [scale] is the reference
   time over the kernel's time around the run. Memory, shares, virtual
   numbers and the kernels' own times are left as measured. *)
let calibrate scale (o : Work.outcome) =
  let value (name, v) =
    match Catalog.find name with
    | Some { Catalog.layer = "host"; _ } -> (name, v)
    | Some { Catalog.kind = Catalog.Host; unit_ = "s" | "ns"; _ } -> (name, v *. scale)
    | Some { Catalog.kind = Catalog.Host; unit_ = "events/s"; _ } -> (name, v /. scale)
    | _ -> (name, v)
  in
  { o with Work.values = List.map value o.Work.values }

(* A set-up-only run's set-up, by the set-up kernel it ran beside it. *)
let calibrate_setup (o : Work.outcome) =
  match List.assoc_opt "host.setup_kernel_s" o.Work.values with
  | Some k when k > 0.0 -> calibrate (Calib.setup_reference_s /. k) o
  | _ -> o

(* The kernel's time around sample [i], which ran between kernel runs
   [i] and [i + 1]: the median of the three runs on either side. One
   kernel run now and then takes half as long again as its neighbours,
   which would throw the two samples beside it; a slow spell of the
   host lasts much longer than a few samples, and moves the median. *)
let kernel_around kernel i =
  let lo = max 0 (i - 2) and hi = min (Array.length kernel - 1) (i + 3) in
  Quant.median (Array.to_list (Array.sub kernel lo (hi - lo + 1)))

let measure ~seed ~length ~plan workload =
  let run = spawn ~name:workload ~seed ~length in
  let t0 = Probe.now () in
  (* The self-test's kernel is short: it checks the path, not the
     machine. *)
  let kernel () =
    Calib.seconds ~events:(match length with Work.Full -> Calib.events | Work.Smoke -> 10_000)
  in
  let warmup = [ run Work.Timed ] in
  ignore (kernel ());
  (* Samples, latest first: (traced, set-up-only runs, the run); the
     kernel runs between them. *)
  let samples = ref [] and kernel_s = ref [ kernel () ] and took = ref [] in
  let go ~traced =
    let start = Probe.now () in
    let group =
      if traced then [] else List.init (companions length) (fun _ -> run Work.Setup_only)
    in
    let o = run (if traced then Work.Traced else Work.Timed) in
    samples := (traced, group, o) :: !samples;
    kernel_s := kernel () :: !kernel_s;
    took := (Probe.now () -. start) :: !took
  in
  let count kind = List.length (List.filter (fun (traced, _, _) -> traced = kind) !samples) in
  (match plan with
  | Reps (n_timed, n_traced) ->
      for _ = 1 to n_timed do
        go ~traced:false
      done;
      for _ = 1 to n_traced do
        go ~traced:true
      done
  | Budget (seconds, with_traced) ->
      let enough () =
        count false > 0
        && ((not with_traced) || count true > 0)
        && Probe.now () -. t0 +. Quant.median !took > seconds
      in
      while not (enough ()) do
        go ~traced:(with_traced && count true <= count false)
      done);
  let kernel = Array.of_list (List.rev !kernel_s) in
  let samples =
    List.mapi
      (fun i (traced, group, o) ->
        let calibrate = calibrate (Calib.reference_s /. kernel_around kernel i) in
        (traced, List.map calibrate_setup group, calibrate o))
      (List.rev !samples)
  in
  let timed = List.filter (fun (traced, _, _) -> not traced) samples in
  {
    workload;
    warmup;
    timed = List.map (fun (_, _, o) -> o) timed;
    companions = List.map (fun (_, group, _) -> group) timed;
    traced = List.filter_map (fun (traced, _, o) -> if traced then Some o else None) samples;
    kernel_s = Array.to_list kernel;
  }

(* ---- From runs to metrics --------------------------------------------- *)

let value (o : Work.outcome) name =
  match List.assoc_opt name o.Work.values with Some v -> v | None -> 0.0


(* The samples behind a metric: one set-up sample per timed run (the
   median of its companions'), the set-up split pooled over every
   companion, the calibration kernels' own times, other end-to-end
   figures from the timed runs and per-layer figures from the traced
   runs. *)
let metric_samples r (m : Catalog.t) =
  let name = m.Catalog.name in
  let of_ runs = List.map (fun o -> value o name) runs in
  if name = "setup_s" then List.map (fun group -> Quant.median (of_ group)) r.companions
  else if String.starts_with ~prefix:"setup." name then of_ (List.concat r.companions)
  else if name = "trace.overhead_ratio" then
    let timed_wall = Quant.median (List.map (fun o -> value o "wall_s") r.timed) in
    List.map (fun o -> Work.ratio (value o "wall_s") timed_wall) r.traced
  else if name = "host.kernel_s" then r.kernel_s
  else if name = "host.setup_kernel_s" then of_ (List.concat r.companions)
  else if m.Catalog.layer = "end_to_end" then of_ r.timed
  else of_ r.traced

let pctl_samples r name =
  match r.timed @ r.traced with
  | o :: _ -> Option.value ~default:0 (List.assoc_opt name o.Work.samples)
  | [] -> 0

(* Everything that makes a workload's runs untrustworthy: correctness
   violations, virtual results that differ between runs of one seed,
   and percentiles with a noise tail. *)
let errors ~guard_percentiles r =
  let all = r.warmup @ r.timed @ r.traced in
  let violations =
    List.concat_map (fun o -> List.map (fun v -> r.workload ^ ": " ^ v) o.Work.violations) all
  in
  let determinism =
    match all with
    | [] -> []
    | first :: rest ->
        List.sort_uniq compare
          (List.concat_map
             (fun o ->
               List.filter_map
                 (fun (field, v) ->
                   match List.assoc_opt field o.Work.fingerprint with
                   | Some v' when v' = v -> None
                   | v' ->
                       Some
                         (Printf.sprintf
                            "%s: virtual results differ between runs of the same seed: %s \
                             is %s in one run and %s in another"
                            r.workload field v (Option.value ~default:"missing" v')))
                 first.Work.fingerprint)
             rest)
  in
  let percentiles =
    if not guard_percentiles then []
    else
      List.filter_map
        (fun name ->
          match Catalog.find name with
          | None -> None
          | Some m ->
              let n = pctl_samples r name in
              let k = Quant.beyond ~n ~pctl:m.Catalog.pctl in
              if k < 10 then
                Some
                  (Printf.sprintf "%s: %s needs 10 samples beyond p%g, has %d of %d"
                     r.workload name m.Catalog.pctl k n)
              else None)
        (Catalog.tails_of r.workload)
  in
  violations @ determinism @ percentiles

let n_violations r =
  List.fold_left
    (fun acc o -> acc + List.length o.Work.violations)
    0
    (r.warmup @ r.timed @ r.traced)

(* ---- Output -------------------------------------------------------------- *)

let fmt_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.abs v >= 1000.0 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.4g" v

let print_table oc r =
  Printf.fprintf oc "\n== %s ==\n%-40s %-16s %12s %12s %12s %3s\n" r.workload "metric" "unit"
    "median" "q1" "q3" "n";
  List.iter
    (fun (m : Catalog.t) ->
      let xs = metric_samples r m in
      let q1, q3 = Quant.quartiles xs in
      let pctl =
        if m.Catalog.pctl > 0.0 then
          Printf.sprintf "  (p%g of %d samples)" m.Catalog.pctl (pctl_samples r m.Catalog.name)
        else ""
      in
      Printf.fprintf oc "%-40s %-16s %12s %12s %12s %3d%s\n" m.Catalog.name m.Catalog.unit_
        (fmt_num (Quant.median xs))
        (fmt_num q1) (fmt_num q3) (List.length xs) pctl)
    Catalog.all;
  List.iter
    (fun o ->
      List.iter
        (fun (s : Probe.span) ->
          Printf.fprintf oc "span %-32s parent %-26s %9.4fs .. %9.4fs\n" s.Probe.name
            (if s.Probe.parent = "" then "-" else s.Probe.parent)
            s.Probe.start_s s.Probe.stop_s)
        o.Work.spans)
    (match r.traced with o :: _ -> [ o ] | [] -> []);
  flush oc

let metric_json r (m : Catalog.t) =
  let xs = metric_samples r m in
  let q1, q3 = Quant.quartiles xs in
  ( m.Catalog.name,
    Json.Obj
      ([
         ("unit", Json.String m.Catalog.unit_);
         ("layer", Json.String m.Catalog.layer);
         ("moves", Json.String m.Catalog.targets);
         ("median", Json.Float (Quant.median xs));
         ("q1", Json.Float q1);
         ("q3", Json.Float q3);
         ("samples", Json.List (List.map (fun x -> Json.Float x) xs));
       ]
      @
      if m.Catalog.pctl > 0.0 then
        [ ("pctl_samples", Json.Int (pctl_samples r m.Catalog.name)) ]
      else []) )

let span_json (s : Probe.span) =
  Json.Obj
    [
      ("name", Json.String s.Probe.name);
      ("parent", Json.String s.Probe.parent);
      ("start_s", Json.Float s.Probe.start_s);
      ("stop_s", Json.Float s.Probe.stop_s);
    ]

let workload_json ~errs r =
  Json.Obj
    [
      ("name", Json.String r.workload);
      ("errors", Json.List (List.map (fun e -> Json.String e) errs));
      ("metrics", Json.Obj (List.map (metric_json r) Catalog.all));
      ("spans", Json.List (List.concat_map (fun o -> List.map span_json o.Work.spans) r.traced));
    ]

(* The benchmark-run result line: the end-to-end metrics (trace 0) or
   the per-layer metrics (trace 1), each the median of its samples. *)
let result_json ~traced ~errs r =
  let metrics = if traced then Catalog.per_layer else Catalog.end_to_end in
  let attempted =
    List.fold_left (fun acc o -> acc + o.Work.attempted) 0 (r.warmup @ r.timed @ r.traced)
  in
  Json.Obj
    [
      ("correct", Json.Bool (errs = []));
      ("attempted", Json.Int (max 1 attempted));
      ("failed", Json.Int (n_violations r));
      ( "metrics",
        Json.Obj
          (List.map
             (fun (m : Catalog.t) ->
               ( m.Catalog.name,
                 Json.Obj
                   [
                     ("value", Json.Float (Quant.median (metric_samples r m)));
                     ("unit", Json.String m.Catalog.unit_);
                   ] ))
             metrics) );
    ]

let report_errors errs = List.iter (fun e -> prerr_endline ("ledger: FAILED " ^ e)) errs

(* ---- Modes --------------------------------------------------------------- *)

let benchmark_run ~workload ~seed ~seconds ~traced =
  let r = measure ~seed ~length:Work.Full ~plan:(Budget (seconds, traced)) workload in
  let errs = errors ~guard_percentiles:true r in
  print_table stderr r;
  report_errors errs;
  print_endline (Json.to_string ~indent:false (result_json ~traced ~errs r));
  if errs <> [] then exit 1

let full_ledger ~seed ~reps ~out workloads =
  let results =
    List.map
      (fun w ->
        Printf.eprintf "ledger: %s (%d timed runs + 1 traced)\n%!" w reps;
        measure ~seed ~length:Work.Full ~plan:(Reps (reps, 1)) w)
      workloads
  in
  List.iter (print_table stdout) results;
  let errs = List.map (errors ~guard_percentiles:true) results in
  Json.to_file out
    (Json.Obj
       [
         ("schema", Json.String "tm2c-ledger/1");
         ("seed", Json.Int seed);
         ("reps", Json.Int reps);
         ("workloads", Json.List (List.map2 (fun r e -> workload_json ~errs:e r) results errs));
       ]);
  Printf.printf "\nwrote %s\n%!" out;
  let errs = List.concat errs in
  report_errors errs;
  if errs <> [] then exit 1

(* ---- compare ------------------------------------------------------------- *)

let better_name = function Catalog.Higher -> "higher" | Catalog.Lower -> "lower"

let members key j = match Json.member key j with Some (Json.List l) -> l | _ -> []

let str key j = Option.bind (Json.member key j) Json.to_string_opt

let num key j = Option.bind (Json.member key j) Json.to_float_opt

let read_json path =
  match Json.of_file path with
  | j -> j
  | exception (Sys_error m | Json.Parse_error m) -> fail "cannot read %s: %s" path m

(* Per workload: metric name -> samples. *)
let load_ledger_file path =
  let j = read_json path in
  List.filter_map
    (fun w ->
      match (str "name" w, Json.member "metrics" w) with
      | Some name, Some (Json.Obj ms) ->
          Some
            ( name,
              List.map
                (fun (m, v) -> (m, List.filter_map Json.to_float_opt (members "samples" v)))
                ms )
      | _ -> None)
    (members "workloads" j)

(* A side of a comparison: one ledger file, or a comma-separated list
   whose samples are concatenated in order, so the i-th runs of two
   alternating series pair up. *)
let load_ledger paths =
  let files = List.map load_ledger_file (String.split_on_char ',' paths) in
  let workloads = List.sort_uniq compare (List.concat_map (List.map fst) files) in
  List.map
    (fun w ->
      let per_file = List.filter_map (List.assoc_opt w) files in
      let metrics = List.sort_uniq compare (List.concat_map (List.map fst) per_file) in
      ( w,
        List.map
          (fun m -> (m, List.concat_map (fun ms -> Option.value ~default:[] (List.assoc_opt m ms)) per_file))
          metrics ))
    workloads

type verdict = Improved | Unchanged | Regressed | Unresolved

let verdict_name = function
  | Improved -> "improved"
  | Unchanged -> "unchanged"
  | Regressed -> "regressed"
  | Unresolved -> "unresolved"

(* [loss] > 0 means the change is worse. *)
let loss (m : Catalog.t) a b =
  let ma = Quant.median a and mb = Quant.median b in
  let d = if ma = 0.0 then mb -. ma else (mb -. ma) /. Float.abs ma in
  match m.Catalog.better with Catalog.Higher -> -.d | Catalog.Lower -> d

let better_than (m : Catalog.t) x y =
  match m.Catalog.better with Catalog.Higher -> x > y | Catalog.Lower -> x < y

let rec pairs a b = match (a, b) with x :: a, y :: b -> (x, y) :: pairs a b | _ -> []

(* Virtual metrics compare exactly. Host metrics: a change is improved
   when it wins nine tenths of the pairs and its median moved by more
   than the parent's own spread, or when every change run beats every
   parent run; regressed when its median is worse by more than the
   bound; unresolved when either side's spread is wider than the
   bound. *)
let judge (m : Catalog.t) ~bound a b =
  let l = loss m a b in
  let pairs = pairs a b in
  let wins = List.length (List.filter (fun (x, y) -> better_than m y x) pairs) in
  let verdict =
    if m.Catalog.kind = Catalog.Virtual then
      if a = b then Unchanged else if l > 0.0 then Regressed else Improved
    else
      let all_better = List.for_all (fun y -> List.for_all (fun x -> better_than m y x) a) b in
      if a <> [] && b <> [] && all_better then Improved
      else if Float.max (Quant.spread a) (Quant.spread b) > bound then Unresolved
      else if l > bound then Regressed
      else if
        10 * wins >= 9 * List.length pairs && -.l > Quant.spread a && pairs <> []
      then Improved
      else Unchanged
  in
  (verdict, wins, List.length pairs)

let band xs =
  let q1, q3 = Quant.quartiles xs in
  Printf.sprintf "%s [%s, %s]" (fmt_num (Quant.median xs)) (fmt_num q1) (fmt_num q3)

let compare_main ~benchmark parent_path change_path =
  let bench = read_json benchmark in
  let bounds =
    List.filter_map
      (fun m -> match (str "name" m, num "bound" m) with Some n, Some b -> Some (n, b) | _ -> None)
      (members "end_to_end" bench)
  in
  let parent = load_ledger parent_path and change = load_ledger change_path in
  let regressed = ref 0 in
  List.iter
    (fun (w, pm) ->
      match List.assoc_opt w change with
      | None -> Printf.printf "\n== %s: missing from %s ==\n" w change_path
      | Some cm ->
          let samples ms name = Option.value ~default:[] (List.assoc_opt name ms) in
          Printf.printf "\n== %s ==\n%-18s %-34s %-34s %7s %9s  %s\n" w "metric"
            "parent median [q1, q3]" "change median [q1, q3]" "wins" "gain" "verdict";
          let moved = ref false in
          List.iter
            (fun (name, bound) ->
              match Catalog.find name with
              | None -> ()
              | Some m ->
                  let a = samples pm name and b = samples cm name in
                  let v, wins, pairs = judge m ~bound a b in
                  if v = Regressed then incr regressed;
                  if v = Improved || v = Regressed then moved := true;
                  Printf.printf "%-18s %-34s %-34s %3d/%-3d %+8.2f%%  %s\n" name (band a) (band b)
                    wins pairs
                    (-100.0 *. loss m a b)
                    (verdict_name v))
            bounds;
          (* Which layers moved: per-layer medians, largest relative
             change first; every drifting virtual metric is listed. *)
          let changes =
            List.filter_map
              (fun (m : Catalog.t) ->
                let a = samples pm m.Catalog.name and b = samples cm m.Catalog.name in
                let ma = Quant.median a and mb = Quant.median b in
                if a = [] || b = [] || ma = mb then None
                else
                  Some
                    ( m,
                      ma,
                      mb,
                      if ma = 0.0 then Float.infinity else Float.abs ((mb -. ma) /. ma) ))
              Catalog.per_layer
          in
          let drift = List.filter (fun ((m : Catalog.t), _, _, _) -> m.Catalog.kind = Catalog.Virtual) changes in
          let show ((m : Catalog.t), ma, mb, _) =
            Printf.printf "    %-40s %14s -> %-14s %s\n" m.Catalog.name (fmt_num ma) (fmt_num mb)
              m.Catalog.unit_
          in
          if drift <> [] then begin
            Printf.printf "  virtual per-layer metrics that differ:\n";
            List.iter show drift
          end;
          if !moved then begin
            Printf.printf "  per-layer metrics that moved most:\n";
            List.iter show
              (List.filteri
                 (fun i _ -> i < 8)
                 (List.sort (fun (_, _, _, x) (_, _, _, y) -> Float.compare y x) changes))
          end)
    parent;
  if !regressed > 0 then exit 1

(* ---- smoke --------------------------------------------------------------- *)

(* BENCHMARK.json and the catalog must name the same metrics with the
   same units, directions and bounds, and the same workloads. *)
let agreement bench =
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  let section key (catalog : Catalog.t list) ~with_bound =
    let declared = members key bench in
    let names = List.filter_map (str "name") declared in
    List.iter
      (fun (m : Catalog.t) ->
        if not (List.mem m.Catalog.name names) then
          problem "%s: %s is not in BENCHMARK.json" key m.Catalog.name)
      catalog;
    List.iter
      (fun d ->
        match Option.bind (str "name" d) Catalog.find with
        | Some m when List.memq m catalog ->
            if str "unit" d <> Some m.Catalog.unit_ then
              problem "%s: %s unit differs from %s" key m.Catalog.name m.Catalog.unit_;
            if str "better" d <> Some (better_name m.Catalog.better) then
              problem "%s: %s direction differs" key m.Catalog.name;
            if with_bound && num "bound" d <> Some m.Catalog.bound then
              problem "%s: %s bound differs from %g" key m.Catalog.name m.Catalog.bound
        | _ ->
            problem "%s: %s is not a ledger metric of this section" key
              (Option.value ~default:"(unnamed)" (str "name" d)))
      declared
  in
  section "end_to_end" Catalog.end_to_end ~with_bound:true;
  section "per_layer" Catalog.per_layer ~with_bound:false;
  let declared = List.filter_map (str "name") (members "workloads" bench) in
  if declared <> Work.names then
    problem "workloads: BENCHMARK.json lists %s, the ledger runs %s" (String.concat "," declared)
      (String.concat "," Work.names);
  List.rev !problems

(* Both result lines of a run must carry every declared metric, finite
   and with its declared unit. *)
let emitted bench r =
  List.concat_map
    (fun (key, traced) ->
      let line = Json.to_string ~indent:false (result_json ~traced ~errs:[] r) in
      let j = Json.of_string line in
      List.filter_map
        (fun d ->
          let name = Option.value ~default:"" (str "name" d) in
          match Json.path [ "metrics"; name ] j with
          | None -> Some (Printf.sprintf "%s: %s not emitted" r.workload name)
          | Some m -> (
              match (num "value" m, str "unit" m) with
              | Some v, Some u when Float.is_finite v && Some u = str "unit" d -> None
              | _ -> Some (Printf.sprintf "%s: %s not finite or wrong unit" r.workload name)))
        (members key bench))
    [ ("end_to_end", false); ("per_layer", true) ]

(* A checker failure is a run violation, so [errors] covers it. *)
let smoke ~benchmark =
  let bench = read_json benchmark in
  let problems = ref (agreement bench) in
  List.iter
    (fun w ->
      let r = measure ~seed:42 ~length:Work.Smoke ~plan:(Reps (1, 1)) w in
      problems := !problems @ errors ~guard_percentiles:false r @ emitted bench r)
    Work.names;
  match !problems with
  | [] ->
      Printf.printf "ledger smoke: %d workloads, %d metrics each, all emitted and finite\n"
        (List.length Work.names) (List.length Catalog.all)
  | ps ->
      report_errors ps;
      exit 1

(* ---- Command line ------------------------------------------------------ *)

let usage () =
  fail
    "usage: ledger.exe [--seed N] [--reps R] [--out FILE] [--workload W]...\n\
    \       ledger.exe --workload W --seed N --seconds S --trace 0|1\n\
    \       ledger.exe compare PARENT.json CHANGE.json [--benchmark FILE]\n\
    \       ledger.exe --smoke [--benchmark FILE]"

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "child" :: rest -> child_main rest
  | [ "compare"; parent; change ] -> compare_main ~benchmark:"BENCHMARK.json" parent change
  | [ "compare"; parent; change; "--benchmark"; b ] -> compare_main ~benchmark:b parent change
  | args ->
      let seed = ref 42 and reps = ref 5 and out = ref "ledger.json" in
      let workloads = ref [] and seconds = ref None and trace = ref false in
      let smoke_mode = ref false and benchmark = ref "BENCHMARK.json" in
      let int_arg flag v =
        match int_of_string_opt v with Some n -> n | None -> fail "%s expects an integer, got %S" flag v
      in
      let rec parse = function
        | [] -> ()
        | "--seed" :: v :: rest ->
            seed := int_arg "--seed" v;
            parse rest
        | "--reps" :: v :: rest ->
            reps := max 1 (int_arg "--reps" v);
            parse rest
        | "--out" :: v :: rest ->
            out := v;
            parse rest
        | "--workload" :: v :: rest ->
            if not (List.mem v Work.names) then
              fail "unknown workload %S (one of %s)" v (String.concat ", " Work.names);
            workloads := !workloads @ [ v ];
            parse rest
        | "--seconds" :: v :: rest ->
            seconds := Some (float_of_int (int_arg "--seconds" v));
            parse rest
        | "--trace" :: v :: rest ->
            trace := int_arg "--trace" v <> 0;
            parse rest
        | "--benchmark" :: v :: rest ->
            benchmark := v;
            parse rest
        | "--smoke" :: rest ->
            smoke_mode := true;
            parse rest
        | _ -> usage ()
      in
      parse args;
      if !smoke_mode then smoke ~benchmark:!benchmark
      else
        match (!seconds, !workloads) with
        | Some seconds, [ workload ] ->
            benchmark_run ~workload ~seed:!seed ~seconds ~traced:!trace
        | Some _, _ -> fail "--seconds needs exactly one --workload"
        | None, [] -> full_ledger ~seed:!seed ~reps:!reps ~out:!out Work.names
        | None, ws -> full_ledger ~seed:!seed ~reps:!reps ~out:!out ws
