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

(* The bucket index as the loop before it scaled by powers of two: a
   test-local copy, the reference the bit-level index must match. *)
let rec loop_log_index v acc sub =
  if v >= 65536.0 then loop_log_index (v *. (1.0 /. 65536.0)) (acc + (16 * sub)) sub
  else if v >= 16.0 then loop_log_index (v *. (1.0 /. 16.0)) (acc + (4 * sub)) sub
  else if v >= 2.0 then loop_log_index (v *. 0.5) (acc + sub) sub
  else acc + int_of_float ((v -. 1.0) *. float_of_int sub)

(* Past the 40 octaves everything shares the last bucket, [sub * 41]. *)
let loop_index ~sub v =
  if v < 1.0 then int_of_float (v *. float_of_int sub)
  else min (loop_log_index v sub sub) (sub * 41)

let sub_of t = int_of_float (Float.round (1.0 /. (2.0 *. Sketch.rel_error t)))

(* Finite non-negative doubles: random bit patterns, powers of two and
   their neighbours one ulp away, every bucket edge of the sketch's
   resolution and its neighbours, values below 1.0, and values of 2^40
   and up (the overflow bucket). *)
let index_sample_gen ~sub =
  let open QCheck.Gen in
  let around x = oneofl [ Float.pred x; x; Float.succ x ] in
  let finite x = if Float.is_finite x then Float.abs x else 1.0 in
  oneof
    [
      map (fun b -> finite (Int64.float_of_bits b)) ui64;
      (let* e = int_range (-20) 60 in
       around (Float.ldexp 1.0 e));
      (let* e = int_range 0 41 and* s = int_range 0 (sub - 1) in
       around (Float.ldexp (1.0 +. (float_of_int s /. float_of_int sub)) e));
      (let* s = int_range 0 sub in
       around (float_of_int s /. float_of_int sub));
      float_range 0.0 1.0;
      (let* e = int_range 40 1023 and* m = float_range 1.0 2.0 in
       return (finite (Float.ldexp m e)));
    ]

let index_matches_loop =
  let gen =
    QCheck.Gen.(
      let* rel_error = oneofl [ 0.2; 0.01; 0.001; 0.0001 ] in
      let sub = sub_of (Sketch.create ~rel_error ()) in
      let+ vs = list_size (int_range 1 50) (index_sample_gen ~sub) in
      (rel_error, vs))
  in
  QCheck.Test.make ~name:"sketch bucket index = the scaling loop's" ~count:500
    (QCheck.make gen ~print:(fun (r, vs) ->
         Printf.sprintf "rel_error %g: %s" r (String.concat " " (List.map (Printf.sprintf "%h") vs))))
    (fun (rel_error, vs) ->
      let t = Sketch.create ~rel_error () in
      List.for_all (fun v -> Sketch.bucket_index t v = loop_index ~sub:(sub_of t) v) vs)

(* The loop never returned on infinity; it belongs in the overflow
   bucket with the other values past 2^40. *)
let test_infinity () =
  let t = Sketch.create () in
  Sketch.add t 1e300;
  Sketch.add t infinity;
  check_int "count" 2 (Sketch.count t);
  check_int "one bucket: the overflow" 1 (List.length (Sketch.buckets t));
  check "same bucket as 2^40" true
    (Sketch.bucket_index t infinity = Sketch.bucket_index t (Float.ldexp 1.0 40));
  checkf "max" infinity (Sketch.max_value t);
  checkf "p100 is the observed max" infinity (Sketch.percentile t 100.0)

(* A NaN used to be counted in the [1, 1 + 1/sub) bucket and turn the
   sum into NaN; it is refused and leaves the sketch untouched. *)
let test_nan_refused () =
  let t = Sketch.create () in
  Sketch.add t 5.0;
  Alcotest.check_raises "NaN" (Invalid_argument "Sketch.add: NaN") (fun () ->
      Sketch.add t Float.nan);
  check_int "count unchanged" 1 (Sketch.count t);
  checkf "sum unchanged" 5.0 (Sketch.sum t)

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
    QCheck_alcotest.to_alcotest index_matches_loop;
    ("sketch: infinity lands in the overflow bucket", `Quick, test_infinity);
    ("sketch: NaN refused", `Quick, test_nan_refused);
  ]
