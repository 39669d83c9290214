(* Golden trace digests: a cross-build bit-identity pin.

   Eight short seeded runs stream their complete event history through
   the history-log writer; the MD5 of each log, together with the
   run's logical event count (processed + elided), is pinned below.
   The first five were recorded before the mailbox hand-off fast paths
   existed, so any engine change that moves a single event, a single
   virtual timestamp or the logical event count fails here. The last
   three cover the DS-lock paths those five never reach: eager
   single-address write locks (with the phase sums pinned too), lease
   reclamation on a hot bank, and replication with a failover; each
   also checks that its log holds the events it exists for. A change
   that is meant to move virtual results re-records the pins and says
   so. *)

open Tm2c_core
open Tm2c_apps
open Tm2c_engine
module Histlog = Tm2c_check.Histlog

(* Run [body] on a fresh runtime with the history log on the trace
   sink; returns (hex digest of the log, logical events). [inspect]
   sees the finished runtime and the log's lines before the log is
   removed. *)
let digest_run cfg ?(prepare = fun _ -> ()) ?(inspect = fun _ _ -> ()) body =
  let t = Runtime.create cfg in
  prepare t;
  Tmp.with_written ~suffix:".hist"
    (fun oc ->
      let w = Histlog.writer_of_channel oc in
      Runtime.enable_tracing t;
      Trace.set_sink (Runtime.trace t) (Some (Histlog.put w));
      let r = body t in
      Histlog.close_writer w;
      r)
    (fun r path ->
      let d = Digest.to_hex (Digest.file path) in
      inspect t (In_channel.with_open_text path In_channel.input_lines);
      (d, r.Workload.events + Sim.elided (Runtime.sim t)))

(* Lines of a history log whose tag (the field after the timestamp)
   is [tag]. *)
let lines_tagged tag lines =
  List.filter
    (fun l ->
      match String.split_on_char ' ' l with _ :: tg :: _ -> tg = tag | _ -> false)
    lines

let assert_holds name tag ?(pred = fun _ -> true) lines =
  if not (List.exists pred (lines_tagged tag lines)) then
    Alcotest.failf "%s: the log holds no %s event it is pinned for" name tag

(* Per-phase sums over every core of a Span aggregate, as exact hex
   floats: a pin that moves when time shifts between two phases even
   though the attempt totals stay put. *)
let phase_sums span =
  String.concat " "
    (List.init (Span.n_phases span) (fun ph ->
         let s = ref 0.0 in
         for core = 0 to Span.n_cores span - 1 do
           s := !s +. Span.sum span ~core ~phase:ph
         done;
         Printf.sprintf "%s=%h" (Span.phases span).(ph) !s))

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

(* Eager writes with phase attribution on: every store takes its
   single-address write lock at once, and the phase sums pin where the
   eager path charges compute against commit_acquire. *)
let eager_ht_phases = ref ("", "")

let eager_hashtable_16 () =
  digest_run
    (Tm2c_harness.Exp.config ~wmode:Tx.Eager ~total:16 ~seed:42 ())
    ~prepare:Runtime.enable_profiling
    ~inspect:(fun t lines ->
      assert_holds "hashtable/16 eager" "WLK"
        ~pred:(fun l -> List.length (String.split_on_char ' ' l) = 4)
        lines;
      eager_ht_phases :=
        (phase_sums (Runtime.span_commit t), phase_sums (Runtime.span_abort t)))
    (fun t ->
      let ht = Hashtable.create t ~n_buckets:64 in
      Hashtable.populate ht (Runtime.fork_prng t) ~n:256 ~key_range:512;
      Workload.drive t ~duration_ns:2e6 (Tm2c_harness.Exp.ht_mix ht ~updates:20 ~range:512))

let fault_plan spec =
  match Tm2c_noc.Fault.of_spec spec with
  | Ok p -> p
  | Error m -> Alcotest.failf "fault plan: %s" m

(* A hot bank (16 accounts) under Wholly with drops, duplicates, a
   crashed client and short leases: lease reclamation revokes orphaned
   holders on the conflict path. *)
let hot_bank_16 () =
  digest_run
    (Tm2c_harness.Exp.config ~policy:Cm.Wholly ~total:16 ~seed:42 ())
    ~prepare:(fun t ->
      Runtime.set_fault_plan t (fault_plan "drop=0.02,dup=0.02,crash=3@5e5");
      Runtime.set_hardening t ~timeout_ns:60_000.0 ~lease_ns:100_000.0 ())
    ~inspect:(fun _ lines -> assert_holds "bank/16 hot" "LSR" lines)
    (fun t ->
      let bank = Bank.create t ~accounts:16 ~initial:1000 in
      Workload.drive t ~duration_ns:4e6 (Tm2c_harness.Exp.bank_mix bank ~balance:50))

(* The counter word's DTM server crash-stops at 1 ms with one replica
   per partition: the backup applies replicated mutations, then is
   promoted and merges them. Allocation is deterministic, so a probe
   runtime finds the server the workload will hammer. *)
let failover_counter_16 () =
  let cfg = Tm2c_harness.Exp.config ~total:16 ~seed:42 () in
  let owner =
    let t = Runtime.create cfg in
    let counter = Tm2c_memory.Alloc.alloc (Runtime.alloc t) ~words:1 in
    (Runtime.env t).System.owner_of counter
  in
  digest_run cfg
    ~prepare:(fun t ->
      Runtime.set_fault_plan t (fault_plan (Printf.sprintf "scrash=%d@1e6" owner));
      Runtime.set_hardening t ~timeout_ns:60_000.0 ~lease_ns:250_000.0 ();
      Runtime.enable_replication t ~replicas:1)
    ~inspect:(fun _ lines ->
      assert_holds "counter/16 failover" "RPA" lines;
      assert_holds "counter/16 failover" "FOD" lines)
    (fun t ->
      let counter = Tm2c_memory.Alloc.alloc (Runtime.alloc t) ~words:1 in
      Workload.drive t ~duration_ns:4e6 (fun _core ctx _prng () ->
          Tx.atomic ctx (fun () -> Tx.write ctx counter (Tx.read ctx counter + 1))))

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
    ( "hashtable/16 eager, phases",
      `Quick,
      fun () ->
        pin "hashtable/16 eager" eager_hashtable_16
          ~digest:"2d9221737c6aceb6f1d0d0e7da727821" ~logical:27232 ();
        let committed, aborted = !eager_ht_phases in
        Alcotest.(check string) "committed phase sums"
          "read_transit=0x1.5b5343c47159ap+23 read_queue=0x1.94029b41ccef5p+19 \
           read_service=0x1.f8dcd72caa87cp+18 compute=0x1.485a1c8c3f697p+20 \
           backoff=0x0p+0 commit_acquire=0x1.287603d7a79aep+18 \
           writeback=0x1.441eb1a6a9fd5p+20"
          committed;
        Alcotest.(check string) "aborted phase sums"
          "read_transit=0x1.251531788e2b4p+16 read_queue=0x1.e28df56ef3009p+12 \
           read_service=0x1.a9a81ae5954fep+11 compute=0x1.b88e49f75accp+12 \
           backoff=0x0p+0 commit_acquire=0x0p+0 writeback=0x1.b1638ace876cp+12"
          aborted );
    ( "bank/16 hot, leases",
      `Quick,
      pin "bank/16 hot" hot_bank_16 ~digest:"f6d119b6076d71c51fd2f7ee45f58181"
        ~logical:40529 );
    ( "counter/16 failover",
      `Quick,
      pin "counter/16 failover" failover_counter_16
        ~digest:"1d2a9aa20363687d12341f61772bc8f8" ~logical:15655 );
  ]
