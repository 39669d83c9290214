(* Log-linear ("HDR-style") mergeable quantile sketch for non-negative
   measurements.

   Layout: values below 1.0 land in [sub] linear buckets over [0, 1);
   a value v in [2^e, 2^(e+1)) (e < octaves) lands in one of [sub]
   linear sub-buckets of its octave, indexed by its mantissa; anything
   at or above 2^octaves falls into one overflow bucket. A quantile
   estimate is the midpoint of the bucket holding the rank-th sample,
   clamped to the observed [min, max].

   Error model: within an octave the bucket width is 2^e / sub and the
   bucket's lower edge is at least 2^e, so the midpoint is within
   1/(2*sub) of the true sample, *relatively*. Below 1.0 the same
   bound holds absolutely (width 1/sub). [create] picks [sub] as the
   smallest power of two meeting the requested bound, so the
   documented guarantee is [rel_error t] = 1/(2*sub) <= requested.
   Index arithmetic is exact (the octave and sub-bucket are read from
   the float's exponent and mantissa bits), so the bound has no hidden
   epsilon beyond the midpoint's own last-bit rounding. Infinity lands
   in the overflow bucket; NaN is refused.

   [add] is O(1) and allocation-free after the first sample (the
   counts array and the moments are created lazily, so unused
   sketches cost a few words and no block of their own). [merge]
   adds counts elementwise — associative and order-independent, the
   property that lets per-core sketches combine into one distribution
   without retaining samples. *)

(* All floats, so stored flat: [add] updates them without boxing a
   float or paying the write barrier. *)
type moments = { mutable sum : float; mutable min : float; mutable max : float }

type t = {
  sub : int;  (* linear sub-buckets per octave; a power of two *)
  rel_error : float;  (* achieved bound: 1 / (2 * sub) *)
  mutable counts : int array;  (* allocated with [m] *)
  mutable n : int;
  mutable m : moments option;  (* [None] until the first sample *)
}

(* 40 octaves: ns-scale values up to
   ~2^40 ns (~18 simulated minutes) resolve; beyond that the overflow
   bucket still keeps count/sum/max exact. *)
let octaves = 40

let max_sub = 4096

let default_rel_error = 0.01

let n_buckets sub = (sub * (octaves + 1)) + 1

let create ?(rel_error = default_rel_error) () =
  if not (rel_error > 0.0 && rel_error < 0.5) then
    invalid_arg "Sketch.create: rel_error must be in (0, 0.5)";
  let rec fit s =
    if s >= max_sub || 1.0 /. float_of_int (2 * s) <= rel_error then s
    else fit (2 * s)
  in
  let sub = fit 1 in
  {
    sub;
    rel_error = 1.0 /. float_of_int (2 * sub);
    counts = [||];
    n = 0;
    m = None;
  }

let rel_error t = t.rel_error

(* Bucket index of [v >= 0] (not NaN). A [v >= 1] is 2^e * 1.f: [e]
   is the biased exponent field less 1023, and the sub-bucket is the
   top log2 [sub] bits of the 52-bit fraction field, taken as the top
   40 bits times [sub] (at most 2^12) over 2^40. Both are read from the
   float's bits, so the index is the mathematically correct one for
   every [v]. The bits fill a 63-bit int (the sign bit, 0 here, is
   dropped), which [lsr] reads unsigned. Infinity's exponent field
   (2047) is past every octave: the overflow bucket. *)
let index_of t v =
  if v < 1.0 then int_of_float (v *. float_of_int t.sub)
  else begin
    let b = Int64.to_int (Int64.bits_of_float v) in
    let e = (b lsr 52) - 1023 in
    if e >= octaves then n_buckets t.sub - 1
    else t.sub + (e * t.sub) + ((((b land ((1 lsl 52) - 1)) lsr 12) * t.sub) lsr 40)
  end

let bucket_index = index_of

(* The moments to write, allocated with the counts on first use. *)
let materialize t =
  match t.m with
  | Some m -> m
  | None ->
      let m = { sum = 0.0; min = infinity; max = neg_infinity } in
      t.counts <- Array.make (n_buckets t.sub) 0;
      t.m <- Some m;
      m

let add t v =
  if Float.is_nan v then invalid_arg "Sketch.add: NaN";
  let v = if v < 0.0 then 0.0 else v in
  let m = materialize t in
  let i = index_of t v in
  t.counts.(i) <- t.counts.(i) + 1;
  t.n <- t.n + 1;
  m.sum <- m.sum +. v;
  if v < m.min then m.min <- v;
  if v > m.max then m.max <- v

let count t = t.n

let sum t = match t.m with Some m -> m.sum | None -> 0.0

(* The observed range; [infinity, neg_infinity] while empty. *)
let lo t = match t.m with Some m -> m.min | None -> infinity

let hi t = match t.m with Some m -> m.max | None -> neg_infinity

let mean t = if t.n = 0 then 0.0 else sum t /. float_of_int t.n

let min_value t = if t.n = 0 then 0.0 else lo t

let max_value t = if t.n = 0 then 0.0 else hi t

(* Edges of bucket [i]: [0, sub) are the linear sub-unit buckets,
   [sub + e*sub + s] covers 2^e * [1 + s/sub, 1 + (s+1)/sub), and the
   last bucket is the overflow tail. *)
let bucket_lower t i =
  if i < t.sub then float_of_int i /. float_of_int t.sub
  else begin
    let e = (i - t.sub) / t.sub and s = (i - t.sub) mod t.sub in
    Float.ldexp (1.0 +. (float_of_int s /. float_of_int t.sub)) e
  end

let bucket_upper t i =
  if i >= n_buckets t.sub - 1 then infinity else bucket_lower t (i + 1)

let clamp t v =
  if v < lo t then lo t else if v > hi t then hi t else v

(* Midpoint estimate for the sample in bucket [i], clamped to the
   observed range (clamping can only reduce the error: every sample in
   the bucket lies within [min, max]). The overflow bucket has no
   midpoint and reports the observed max. *)
let estimate t i =
  if i >= n_buckets t.sub - 1 then hi t
  else clamp t (0.5 *. (bucket_lower t i +. bucket_upper t i))

(* Nearest-rank rule: the p-th percentile is the rank-th smallest
   sample with rank = clamp(round(n * p / 100), 1, n). *)
let rank_of n p =
  let r = int_of_float (Float.round (float_of_int n *. p /. 100.0)) in
  if r < 1 then 1 else if r > n then n else r

let percentile t p =
  if t.n = 0 then 0.0
  else begin
    let rank = rank_of t.n p in
    let seen = ref 0 and result = ref 0.0 in
    (try
       Array.iteri
         (fun i c ->
           seen := !seen + c;
           if !seen >= rank then begin
             result := estimate t i;
             raise Exit
           end)
         t.counts
     with Exit -> ());
    !result
  end

let merge ~into src =
  if into.sub <> src.sub then
    invalid_arg "Sketch.merge: mismatched resolutions";
  if src.n > 0 then begin
    let m = materialize into in
    Array.iteri
      (fun i c -> if c > 0 then into.counts.(i) <- into.counts.(i) + c)
      src.counts;
    into.n <- into.n + src.n;
    m.sum <- m.sum +. sum src;
    if lo src < m.min then m.min <- lo src;
    if hi src > m.max then m.max <- hi src
  end

(* Non-empty buckets as (inclusive-ish upper edge, count), low to
   high; the overflow bucket reports the observed max as its edge. *)
let buckets t =
  let acc = ref [] in
  Array.iteri
    (fun i c ->
      if c > 0 then begin
        let upper = bucket_upper t i in
        let upper = if upper = infinity then hi t else upper in
        acc := (upper, c) :: !acc
      end)
    t.counts;
  List.rev !acc

let reset t =
  (match t.m with
  | Some m ->
      Array.fill t.counts 0 (Array.length t.counts) 0;
      m.sum <- 0.0;
      m.min <- infinity;
      m.max <- neg_infinity
  | None -> ());
  t.n <- 0

(* ---- windows ----

   A window is a baseline snapshot of the counts: the delta between
   the live sketch and its baseline is the distribution of everything
   added since [window_roll]. Producers keep writing the one
   cumulative sketch (no double write on the hot path); the snapshot
   subsystem reads window quantiles at each tick and rolls the
   baseline, so windowed emission costs one array blit per window. *)

type window = {
  mutable w_counts : int array;  (* [||] until the source materializes *)
  mutable w_n : int;
  mutable w_sum : float;
}

let window_of t =
  {
    w_counts = (if Array.length t.counts = 0 then [||] else Array.copy t.counts);
    w_n = t.n;
    w_sum = sum t;
  }

let window_roll t w =
  (if Array.length t.counts > 0 then
     if Array.length w.w_counts = Array.length t.counts then
       Array.blit t.counts 0 w.w_counts 0 (Array.length t.counts)
     else w.w_counts <- Array.copy t.counts);
  w.w_n <- t.n;
  w.w_sum <- sum t

let window_count t w = t.n - w.w_n

let window_sum t w = sum t -. w.w_sum

let base_count w i = if Array.length w.w_counts = 0 then 0 else w.w_counts.(i)

let window_percentile t w p =
  let n = window_count t w in
  if n <= 0 then 0.0
  else begin
    let rank = rank_of n p in
    let seen = ref 0 and result = ref 0.0 in
    (try
       Array.iteri
         (fun i c ->
           let d = c - base_count w i in
           if d > 0 then begin
             seen := !seen + d;
             if !seen >= rank then begin
               (* Clamped to the cumulative [min, max] — a superset of
                  the window's range, so the clamp stays sound. *)
               result := estimate t i;
               raise Exit
             end
           end)
         t.counts
     with Exit -> ());
    !result
  end

(* Fold everything added since the baseline into [into] (same
   resolution required); [into]'s range conservatively absorbs the
   cumulative [min, max]. Used to merge per-core per-phase windows
   into one per-phase distribution at each snapshot tick. *)
let window_merge t w ~into =
  if into.sub <> t.sub then
    invalid_arg "Sketch.window_merge: mismatched resolutions";
  let dn = window_count t w in
  if dn > 0 then begin
    let m = materialize into in
    Array.iteri
      (fun i c ->
        let d = c - base_count w i in
        if d > 0 then into.counts.(i) <- into.counts.(i) + d)
      t.counts;
    into.n <- into.n + dn;
    m.sum <- m.sum +. window_sum t w;
    if lo t < m.min then m.min <- lo t;
    if hi t > m.max then m.max <- hi t
  end
