(* Golden trace digests: a cross-build bit-identity pin.

   Five short seeded runs stream their complete event history through
   the history-log writer; the MD5 of each log, together with the
   run's logical event count (processed + elided), is pinned below.
   The expected values were recorded before the mailbox hand-off fast
   paths existed, so any engine change that moves a single event, a
   single virtual timestamp or the logical event count fails here. A
   change that is meant to move virtual results re-records the pins
   and says so. *)

open Tm2c_core
open Tm2c_apps
open Tm2c_engine
module Histlog = Tm2c_check.Histlog

(* Run [body] on a fresh runtime with the history log on the trace
   sink; returns (hex digest of the log, logical events). *)
let digest_run cfg ?(prepare = fun _ -> ()) body =
  let t = Runtime.create cfg in
  prepare t;
  let path = Filename.temp_file "tm2c_golden" ".hist" in
  let w = Histlog.create_writer path in
  Runtime.enable_tracing t;
  Trace.set_sink (Runtime.trace t) (Some (Histlog.put w));
  let r = body t in
  Histlog.close_writer w;
  let d = Digest.to_hex (Digest.file path) in
  Sys.remove path;
  (d, r.Workload.events + Sim.elided (Runtime.sim t))

let counter_16 () =
  digest_run (Tm2c_harness.Exp.config ~total:16 ~seed:42 ()) (fun t ->
      let counter = Tm2c_memory.Alloc.alloc (Runtime.alloc t) ~words:1 in
      Workload.drive t ~duration_ns:2e6 (fun _core ctx _prng () ->
          Tx.atomic ctx (fun () -> Tx.write ctx counter (Tx.read ctx counter + 1))))

let bank_48 () =
  digest_run (Tm2c_harness.Exp.config ~total:48 ~seed:42 ()) (fun t ->
      let bank = Bank.create t ~accounts:256 ~initial:1000 in
      Workload.drive t ~duration_ns:2e6 (Tm2c_harness.Exp.bank_mix bank ~balance:20))

let hashtable_mesh () =
  let platform = Tm2c_noc.Platform.scc_mesh ~cols:16 ~rows:16 in
  digest_run (Tm2c_harness.Exp.config ~platform ~total:512 ~seed:42 ()) (fun t ->
      let ht = Hashtable.create t ~n_buckets:64 in
      Hashtable.populate ht (Runtime.fork_prng t) ~n:256 ~key_range:512;
      Workload.drive t ~duration_ns:1e6 (Tm2c_harness.Exp.ht_mix ht ~updates:20 ~range:512))

let openloop_bursty () =
  let window_ns = 2e6 in
  let cfg =
    {
      Openloop.default with
      Openloop.arrival =
        Openloop.Bursty
          {
            base_per_ms = 38.0;
            burst_per_ms = 143.0;
            burst_start_ns = window_ns /. 4.0;
            burst_end_ns = window_ns /. 2.0;
          };
      window_ns;
      drain_ns = window_ns /. 8.0;
      policy = Admission.Token_bucket { capacity = 24; rate_per_ms = 38.0; burst = 24.0 };
      retry_budget = 3;
    }
  in
  digest_run (Tm2c_harness.Exp.config ~total:16 ~seed:42 ()) (fun t -> Openloop.drive t cfg)

(* Request timeouts plus dropped and delayed messages: resends, and
   [recv_timeout] deadlines that tie with arrivals. *)
let hardened_bank_16 () =
  let plan =
    match Tm2c_noc.Fault.of_spec "drop=0.02,delay=0.05@2000" with
    | Ok p -> p
    | Error m -> Alcotest.failf "fault plan: %s" m
  in
  digest_run (Tm2c_harness.Exp.config ~total:16 ~seed:42 ())
    ~prepare:(fun t ->
      Runtime.set_fault_plan t plan;
      Runtime.set_hardening t ~timeout_ns:20_000.0 ())
    (fun t ->
      let bank = Bank.create t ~accounts:64 ~initial:1000 in
      Workload.drive t ~duration_ns:4e6 (Tm2c_harness.Exp.bank_mix bank ~balance:20))

let pin name run ~digest ~logical () =
  let d, n = run () in
  Alcotest.(check string) (name ^ " history digest") digest d;
  Alcotest.(check int) (name ^ " logical events") logical n

let suite =
  [
    ( "counter/16",
      `Quick,
      pin "counter/16" counter_16 ~digest:"d56d4bc5ef975ae778fc523ec48299bd" ~logical:8006 );
    ( "bank/48",
      `Quick,
      pin "bank/48" bank_48 ~digest:"6eaa7faa92289b56ea42940869dec963" ~logical:49502 );
    ( "hashtable/mesh 16x16",
      `Quick,
      pin "hashtable/mesh" hashtable_mesh ~digest:"53c4a33136f00d10d96b69e6cfb62e8e"
        ~logical:47447 );
    ( "openloop/bursty",
      `Quick,
      pin "openloop/bursty" openloop_bursty ~digest:"42f7f913f4272607f88b78c5a3dbf4be"
        ~logical:39175 );
    ( "bank/16 hardened, drop+delay",
      `Quick,
      pin "bank/16 hardened" hardened_bank_16 ~digest:"4c7e39b48115b8d3d86a160daa4bef1a"
        ~logical:49603 );
  ]
