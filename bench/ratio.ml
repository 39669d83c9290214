(* The core-count scaling ratio of the simulator's host cost: the
   hash-table mix (64 buckets, 256 keys in a 512-key range, 20%
   updates) on the 16x16 SCC mesh at 96 and at 512 cores, seed 42,
   runs alternating between the two sizes. Only the drive is timed,
   not set-up. Each run reports its logical events (processed plus
   elided) per host second; the line that matters is the 512/96
   ratio of those rates, per pair and in the median. 1.0 would mean a
   dispatch costs the same at both sizes. *)

open Tm2c_core
open Tm2c_apps

let platform = Tm2c_noc.Platform.scc_mesh ~cols:16 ~rows:16

(* Events per host second of one drive. *)
let rate ~cores ~duration_ns =
  let rt = Runtime.create (Tm2c_harness.Exp.config ~platform ~total:cores ~seed:42 ()) in
  let ht = Hashtable.create rt ~n_buckets:64 in
  Hashtable.populate ht (Runtime.fork_prng rt) ~n:256 ~key_range:512;
  let mix = Tm2c_harness.Exp.ht_mix ht ~updates:20 ~range:512 in
  let t0 = Unix.gettimeofday () in
  let r = Workload.drive rt ~duration_ns mix in
  let dt = Unix.gettimeofday () -. t0 in
  float_of_int (r.Workload.events + Tm2c_engine.Sim.elided (Runtime.sim rt)) /. dt

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let range xs = (List.fold_left Float.min infinity xs, List.fold_left Float.max neg_infinity xs)

let summary name fmt xs =
  let lo, hi = range xs in
  Printf.printf "%-14s median %s  range %s - %s\n" name (fmt (median xs)) (fmt lo) (fmt hi)

(* [runs] alternating pairs: odd pairs run 96 cores first, even pairs
   512 first, so a drift in the host's speed falls on both sizes. *)
let run ~runs ~duration_ms =
  let duration_ns = duration_ms *. 1e6 in
  Printf.printf
    "512/96 ratio: hash-table mix on the 16x16 mesh, %g virtual ms, seed 42, %d alternating \
     pairs, drive only\n\
     %!"
    duration_ms runs;
  let pairs =
    List.init runs (fun i ->
        let r96, r512 =
          if i mod 2 = 0 then
            let a = rate ~cores:96 ~duration_ns in
            (a, rate ~cores:512 ~duration_ns)
          else
            let b = rate ~cores:512 ~duration_ns in
            (rate ~cores:96 ~duration_ns, b)
        in
        Printf.printf "pair %2d  96: %.3fM  512: %.3fM events/s  ratio %.3f\n%!" (i + 1)
          (r96 /. 1e6) (r512 /. 1e6) (r512 /. r96);
        (r96, r512))
  in
  let mev x = Printf.sprintf "%.3fM" (x /. 1e6) in
  summary "96 cores" mev (List.map fst pairs);
  summary "512 cores" mev (List.map snd pairs);
  summary "ratio 512/96" (Printf.sprintf "%.3f") (List.map (fun (a, b) -> b /. a) pairs)
