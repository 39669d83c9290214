(* Tests of the workload drivers and the statistics module: result
   invariants, determinism, and a seed-sweep conservation property. *)

open Tm2c_core
open Tm2c_apps
open Tm2c_engine

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let cfg ?(seed = 42) () =
  {
    Runtime.default_config with
    total_cores = 8;
    service_cores = 4;
    seed;
  }

(* ---- Stats ---- *)

let test_stats_empty () =
  let s = Stats.create ~n_cores:4 in
  check_int "no commits" 0 (Stats.total_commits s);
  Alcotest.(check bool) "empty commit rate is nan" true
    (Float.is_nan (Stats.commit_rate s));
  check_int "worst attempts" 0 (Stats.worst_attempts s)

let test_stats_accounting () =
  let s = Stats.create ~n_cores:2 in
  let c0 = Stats.core s 0 and c1 = Stats.core s 1 in
  c0.Stats.commits <- 3;
  c0.Stats.aborts_raw <- 1;
  c1.Stats.commits <- 1;
  c1.Stats.aborts_war <- 2;
  c1.Stats.aborts_status <- 1;
  check_int "total commits" 4 (Stats.total_commits s);
  check_int "total aborts" 4 (Stats.total_aborts s);
  Alcotest.(check (float 0.01)) "commit rate" 50.0 (Stats.commit_rate s);
  check_int "per-core aborts" 3 (Stats.aborts c1);
  Stats.reset s;
  check_int "reset" 0 (Stats.total_commits s)

(* ---- Drivers ---- *)

let bank_driver ~seed ~duration_ns =
  let t = Runtime.create (cfg ~seed ()) in
  let bank = Bank.create t ~accounts:32 ~initial:100 in
  let r =
    Workload.drive t ~duration_ns (fun _core ctx prng () ->
        let src = Prng.int prng 32 and dst = Prng.int prng 32 in
        Bank.tx_transfer ctx bank ~src ~dst ~amount:1)
  in
  (r, Bank.total bank)

let test_drive_result_invariants () =
  let r, total = bank_driver ~seed:42 ~duration_ns:8e6 in
  check "ops positive" true (r.Workload.ops > 0);
  check "messages positive" true (r.Workload.messages > 0);
  check "events positive" true (r.Workload.events > 0);
  Alcotest.(check (float 0.01)) "duration" 8.0 r.Workload.duration_ms;
  Alcotest.(check (float 0.5))
    "throughput = ops / duration"
    (float_of_int r.Workload.ops /. r.Workload.duration_ms)
    r.Workload.throughput_ops_ms;
  check "commit rate sane" true (r.Workload.commit_rate > 0.0 && r.Workload.commit_rate <= 100.0);
  (* A transfer op is one transaction: commits >= ops (aborted op
     retries can inflate attempts, never deflate commits). *)
  check "commits >= ops" true (r.Workload.commits >= r.Workload.ops);
  check_int "conserved" 3200 total

let test_drive_deterministic () =
  let summarize (r, total) =
    (r.Workload.ops, r.Workload.commits, r.Workload.aborts, r.Workload.messages, total)
  in
  check "same seed same run" true
    (summarize (bank_driver ~seed:9 ~duration_ns:5e6)
    = summarize (bank_driver ~seed:9 ~duration_ns:5e6))

let test_longer_window_more_ops () =
  let r1, _ = bank_driver ~seed:4 ~duration_ns:4e6 in
  let r2, _ = bank_driver ~seed:4 ~duration_ns:12e6 in
  check "3x window gives roughly 3x ops" true
    (r2.Workload.ops > 2 * r1.Workload.ops && r2.Workload.ops < 4 * r1.Workload.ops)

let conservation_over_seeds =
  QCheck.Test.make ~name:"bank conserved for arbitrary seeds (concurrent)" ~count:10
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let _, total = bank_driver ~seed ~duration_ns:3e6 in
      total = 3200)

let test_seq_driver () =
  let t = Runtime.create (cfg ()) in
  let bank = Bank.create t ~accounts:16 ~initial:10 in
  let r =
    Workload.drive_seq t ~duration_ns:5e6 (fun ~core prng ->
        let env = Runtime.env t in
        fun () ->
          let src = Prng.int prng 16 and dst = Prng.int prng 16 in
          Bank.seq_transfer env ~core bank ~src ~dst ~amount:1)
  in
  check "seq ops positive" true (r.Workload.ops > 0);
  check_int "seq sends no messages" 0 r.Workload.messages;
  check_int "seq conserved" 160 (Bank.total bank)

let test_run_to_completion_counts_workers () =
  let t = Runtime.create (cfg ()) in
  let r =
    Workload.run_to_completion t (fun _core ctx _prng ->
        Tx.atomic ctx (fun () -> ()))
  in
  check_int "one op per worker" (Array.length (Runtime.app_cores t)) r.Workload.ops

let suite =
  [
    ("stats: empty", `Quick, test_stats_empty);
    ("stats: accounting and reset", `Quick, test_stats_accounting);
    ("drive: result invariants", `Quick, test_drive_result_invariants);
    ("drive: deterministic", `Quick, test_drive_deterministic);
    ("drive: ops scale with window", `Quick, test_longer_window_more_ops);
    QCheck_alcotest.to_alcotest conservation_over_seeds;
    ("drive_seq: no messages, conserved", `Quick, test_seq_driver);
    ("run_to_completion: one op per worker", `Quick, test_run_to_completion_counts_workers);
  ]
