(* Order statistics of a run's samples. [quartiles] is Python's
   statistics.quantiles(values, n=4) (the default "exclusive" method),
   so the bands the ledger prints agree with any script that recomputes
   them from the raw samples in ledger.json. *)

let sorted xs = Array.of_list (List.sort Float.compare xs)

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* (q1, q3); the middle quartile is the median. *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then (0.0, 0.0)
  else if n = 1 then (a.(0), a.(0))
  else
    let m = n + 1 in
    let q i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 3)

(* Interquartile range as a share of the median (0 when the median is). *)
let spread xs =
  let q1, q3 = quartiles xs in
  let m = median xs in
  if m = 0.0 then 0.0 else (q3 -. q1) /. Float.abs m

(* Samples strictly beyond a reported percentile of a sketch holding
   [n] samples: the sketch reports the rank-th smallest sample with
   rank = clamp(round(n * p / 100), 1, n). *)
let beyond ~n ~pctl =
  if n = 0 then 0
  else
    let rank = max 1 (min n (int_of_float (Float.round (float_of_int n *. pctl /. 100.0)))) in
    n - rank
