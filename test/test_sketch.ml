(* The log-linear quantile sketch: estimates against an exact
   sorted-sample oracle (the documented error bound, property-based),
   merge associativity, and the window (baseline/delta) API the flight
   recorder builds on. *)

open Tm2c_engine

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let checkf = Alcotest.(check (float 0.0))

(* The nearest-rank rule, which Sketch documents and implements: the
   p-th percentile of n samples is the rank-th smallest with
   rank = clamp(round(n * p / 100), 1, n). *)
let exact_percentile sorted p =
  let n = Array.length sorted in
  let r = int_of_float (Float.round (float_of_int n *. p /. 100.0)) in
  let r = if r < 1 then 1 else if r > n then n else r in
  sorted.(r - 1)

(* The documented guarantee: midpoint of the bucket holding the
   rank-th sample, so within half a bucket width of the true sample —
   [rel_error] *relative* at or above 1.0 (octave buckets), [rel_error]
   *absolute* below 1.0 (linear buckets). A whisker of slack covers
   the midpoint's own last-bit rounding. *)
let within_bound ~rel_error ~exact est =
  let bound =
    if exact >= 1.0 then rel_error *. exact else rel_error
  in
  Float.abs (est -. exact) <= bound +. 1e-9 *. Float.max exact 1.0

let quantile_ladder = [ 50.0; 90.0; 99.0; 99.9 ]

(* Samples spanning the linear region, several octaves, and ns-scale
   magnitudes — the ranges the latency sketches actually see. *)
let sample_gen =
  QCheck.Gen.(
    map2
      (fun scale u -> u *. scale)
      (oneofl [ 0.5; 1.0; 100.0; 1e4; 1e6; 1e9 ])
      (float_bound_inclusive 1.0))

let samples_gen = QCheck.Gen.(list_size (int_range 1 400) sample_gen)

let samples_arb =
  QCheck.make ~print:QCheck.Print.(list float) samples_gen

let sketch_vs_oracle =
  QCheck.Test.make ~name:"sketch quantiles within the documented bound"
    ~count:200 samples_arb (fun samples ->
      let t = Sketch.create () in
      List.iter (Sketch.add t) samples;
      let sorted = Array.of_list samples in
      Array.sort compare sorted;
      check_int "count" (List.length samples) (Sketch.count t);
      List.for_all
        (fun p ->
          within_bound ~rel_error:(Sketch.rel_error t)
            ~exact:(exact_percentile sorted p) (Sketch.percentile t p))
        quantile_ladder)

(* Order independence and merge agreement: any split of the stream,
   each half sketched independently, merged — identical counts, so
   identical quantiles, to sketching the whole stream one by one. *)
let merge_agrees =
  QCheck.Test.make ~name:"merge of split streams = single-stream sketch"
    ~count:200
    QCheck.(pair samples_arb (int_bound 1000))
    (fun (samples, cut) ->
      let n = List.length samples in
      let cut = cut mod (n + 1) in
      let single = Sketch.create () in
      List.iter (Sketch.add single) samples;
      let a = Sketch.create () and b = Sketch.create () in
      List.iteri
        (fun i v -> Sketch.add (if i < cut then a else b) v)
        samples;
      let merged = Sketch.create () in
      Sketch.merge ~into:merged b;
      Sketch.merge ~into:merged a;
      Sketch.count merged = Sketch.count single
      (* Sums accumulate in different orders — equal up to float
         non-associativity; counts (hence quantiles) are exact. *)
      && Float.abs (Sketch.sum merged -. Sketch.sum single)
         <= 1e-9 *. Float.max (Sketch.sum single) 1.0
      && Sketch.min_value merged = Sketch.min_value single
      && Sketch.max_value merged = Sketch.max_value single
      && List.for_all
           (fun p -> Sketch.percentile merged p = Sketch.percentile single p)
           quantile_ladder)

let test_empty () =
  let t = Sketch.create () in
  check_int "count" 0 (Sketch.count t);
  checkf "sum" 0.0 (Sketch.sum t);
  checkf "mean" 0.0 (Sketch.mean t);
  checkf "min" 0.0 (Sketch.min_value t);
  checkf "max" 0.0 (Sketch.max_value t);
  checkf "p99" 0.0 (Sketch.percentile t 99.0);
  check "no buckets" true (Sketch.buckets t = [])

let test_rel_error () =
  (* The achieved bound is the largest power-of-two refinement at or
     under the request: 1/128 for the 1% default. *)
  check "default bound <= 1%" true (Sketch.rel_error (Sketch.create ()) <= 0.01);
  checkf "default achieves 1/128" (1.0 /. 128.0)
    (Sketch.rel_error (Sketch.create ()));
  checkf "coarse request" (1.0 /. 64.0)
    (Sketch.rel_error (Sketch.create ~rel_error:0.02 ()));
  check "invalid bound rejected" true
    (try
       ignore (Sketch.create ~rel_error:0.0 ());
       false
     with Invalid_argument _ -> true)

let test_negative_clamped () =
  let t = Sketch.create () in
  Sketch.add t (-5.0);
  check_int "counted" 1 (Sketch.count t);
  checkf "clamped to zero" 0.0 (Sketch.percentile t 50.0);
  checkf "min" 0.0 (Sketch.min_value t)

let test_exact_singleton () =
  (* One sample: every quantile is that sample, exactly (the midpoint
     clamps to the observed min = max). *)
  let t = Sketch.create () in
  Sketch.add t 1234.5;
  List.iter (fun p -> checkf "singleton" 1234.5 (Sketch.percentile t p))
    [ 0.0; 50.0; 99.9; 100.0 ]

let test_mismatched_merge_rejected () =
  let a = Sketch.create ~rel_error:0.01 ()
  and b = Sketch.create ~rel_error:0.1 () in
  Sketch.add a 1.0;
  Sketch.add b 1.0;
  check "merge rejects mismatched resolutions" true
    (try
       Sketch.merge ~into:a b;
       false
     with Invalid_argument _ -> true)

(* Windows: the delta between a sketch and its baseline is exactly
   the distribution of what was added since the roll. *)
let test_window_delta () =
  let t = Sketch.create () in
  List.iter (Sketch.add t) [ 10.0; 20.0; 30.0 ];
  let w = Sketch.window_of t in
  check_int "fresh window is empty" 0 (Sketch.window_count t w);
  checkf "fresh window sum" 0.0 (Sketch.window_sum t w);
  List.iter (Sketch.add t) [ 1000.0; 2000.0 ];
  check_int "delta count" 2 (Sketch.window_count t w);
  checkf "delta sum" 3000.0 (Sketch.window_sum t w);
  (* The window's median sits among the new samples, far from the
     cumulative median. *)
  let wp50 = Sketch.window_percentile t w 50.0 in
  check "window median reflects only the delta" true
    (within_bound ~rel_error:(Sketch.rel_error t) ~exact:1000.0 wp50);
  (* Rolling re-baselines: the window drains. *)
  Sketch.window_roll t w;
  check_int "rolled window is empty" 0 (Sketch.window_count t w);
  (* window_merge folds the delta into a scratch sketch. *)
  Sketch.add t 500.0;
  let scratch = Sketch.create () in
  Sketch.window_merge t w ~into:scratch;
  check_int "merged delta count" 1 (Sketch.count scratch);
  checkf "merged delta sum" 500.0 (Sketch.sum scratch)

(* A window taken before the lazy counts array exists must still
   observe everything added afterwards. *)
let test_window_before_first_add () =
  let t = Sketch.create () in
  let w = Sketch.window_of t in
  List.iter (Sketch.add t) [ 5.0; 7.0 ];
  check_int "delta sees first samples" 2 (Sketch.window_count t w);
  Sketch.window_roll t w;
  check_int "roll catches up" 0 (Sketch.window_count t w)

let test_reset () =
  let t = Sketch.create () in
  List.iter (Sketch.add t) [ 1.0; 2.0; 3.0 ];
  Sketch.reset t;
  check_int "count" 0 (Sketch.count t);
  checkf "p50" 0.0 (Sketch.percentile t 50.0);
  Sketch.add t 42.0;
  checkf "usable after reset" 42.0 (Sketch.percentile t 50.0)

let suite =
  [
    QCheck_alcotest.to_alcotest sketch_vs_oracle;
    QCheck_alcotest.to_alcotest merge_agrees;
    ("sketch: empty", `Quick, test_empty);
    ("sketch: rel_error selection", `Quick, test_rel_error);
    ("sketch: negatives clamp to zero", `Quick, test_negative_clamped);
    ("sketch: singleton is exact", `Quick, test_exact_singleton);
    ("sketch: merge rejects mismatched resolutions", `Quick,
     test_mismatched_merge_rejected);
    ("sketch: window delta", `Quick, test_window_delta);
    ("sketch: window before first add", `Quick, test_window_before_first_add);
    ("sketch: reset", `Quick, test_reset);
  ]
