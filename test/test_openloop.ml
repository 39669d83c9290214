(* Open-loop overload tests: arrival/skew generator determinism and
   statistics (qcheck), admission-policy unit behavior, accounting
   invariants, horizon-hit flagging, the closed-loop-reproduction
   guarantee of the labelled PRNG splits, and the retry-storm
   metastability regression (unbounded retries + no admission control
   stay collapsed after a flash crowd ends; admission control + a
   bounded budget recover — both checker-green). *)

open Tm2c_core
open Tm2c_apps
open Tm2c_engine
module Exp = Tm2c_harness.Exp
module F = Tm2c_harness.Fig_overload

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let cfg ?(seed = 42) () =
  {
    Runtime.default_config with
    total_cores = 8;
    service_cores = 4;
    seed;
  }

(* ---- Generators (qcheck) ---- *)

(* Same split, same label, same parameters: the arrival stream is
   bit-identical (structural equality on the float list). *)
let arrivals_deterministic =
  QCheck.Test.make ~name:"same seed => bit-identical arrival stream" ~count:50
    QCheck.(
      make
        Gen.(pair (int_bound 1_000_000) (float_range 0.5 100.0))
        ~print:Print.(pair int float))
    (fun (seed, rate) ->
      let stream () =
        let root = Prng.create ~seed in
        let p = Prng.split_label root ~label:"openloop-arrivals-0" in
        Openloop.arrival_times
          (Openloop.Poisson { rate_per_ms = rate })
          p ~until_ns:(50.0 *. 1e6 /. rate)
      in
      stream () = stream ())

(* The empirical mean interarrival converges to 1/lambda. *)
let mean_interarrival =
  QCheck.Test.make ~name:"Poisson mean interarrival ~ 1/rate" ~count:20
    QCheck.(
      make
        Gen.(pair (int_bound 1_000_000) (float_range 1.0 50.0))
        ~print:Print.(pair int float))
    (fun (seed, rate) ->
      let p = Prng.create ~seed in
      let n = 20_000 in
      let sum = ref 0.0 in
      for _ = 1 to n do
        sum := !sum +. Openloop.interarrival_ns p ~rate_per_ms:rate
      done;
      let mean = !sum /. float_of_int n in
      let expect = 1e6 /. rate in
      Float.abs (mean -. expect) /. expect < 0.05)

(* Zipf weights decrease with rank (the CDF increments are the
   normalized 1/k^s weights; adjacent increments may tie only within
   float cancellation). *)
let zipf_monotone =
  QCheck.Test.make ~name:"Zipf rank weights monotone decreasing" ~count:50
    QCheck.(
      make
        Gen.(pair (float_range 0.3 1.5) (int_range 2 300))
        ~print:Print.(pair float int))
    (fun (s, n) ->
      let cdf = Openloop.zipf_cdf ~s ~n in
      let ok = ref (Float.abs (cdf.(n - 1) -. 1.0) < 1e-9) in
      for k = 1 to n - 1 do
        let w_prev = if k = 1 then cdf.(0) else cdf.(k - 1) -. cdf.(k - 2) in
        let w = cdf.(k) -. cdf.(k - 1) in
        if w > w_prev +. 1e-12 then ok := false
      done;
      !ok)

let test_zipf_empirical () =
  let p = Prng.create ~seed:7 in
  let n = 50 in
  let cdf = Openloop.zipf_cdf ~s:1.0 ~n in
  let counts = Array.make n 0 in
  for _ = 1 to 10_000 do
    let r = Openloop.zipf_draw p cdf in
    counts.(r) <- counts.(r) + 1
  done;
  check "rank 0 beats last rank" true (counts.(0) > counts.(n - 1));
  check "rank 0 dominates" true (counts.(0) > 10_000 / n)

let test_bursty_rate () =
  let a =
    Openloop.Bursty
      {
        base_per_ms = 2.0;
        burst_per_ms = 20.0;
        burst_start_ns = 100.0;
        burst_end_ns = 200.0;
      }
  in
  Alcotest.(check (float 0.0)) "before" 2.0 (Openloop.rate_at a ~now_ns:0.0);
  Alcotest.(check (float 0.0)) "inside" 20.0 (Openloop.rate_at a ~now_ns:100.0);
  Alcotest.(check (float 0.0)) "after" 2.0 (Openloop.rate_at a ~now_ns:200.0)

(* ---- Admission policies ---- *)

let offer adm ~core ~retries =
  Admission.offer adm ~core ~tenant:0 ~payload:0 ~arrival_ns:0.0 ~retries

let is_shed = function Admission.Shed _ -> true | Admission.Admitted -> false

let test_reject_capacity () =
  let t = Runtime.create (cfg ()) in
  let adm =
    Runtime.enable_admission t ~policy:(Admission.Reject { capacity = 2 }) ()
  in
  let core = (Runtime.app_cores t).(0) in
  check "first admitted" false (is_shed (offer adm ~core ~retries:0));
  check "second admitted" false (is_shed (offer adm ~core ~retries:0));
  check "third shed" true (is_shed (offer adm ~core ~retries:0));
  let o = (Runtime.env t).System.overload in
  check_int "offered" 3 o.System.ol_offered;
  check_int "admitted" 2 o.System.ol_admitted;
  check_int "shed" 1 o.System.ol_shed;
  check_int "depth" 2 (Admission.depth adm ~core);
  check "take 1" true (Admission.take adm ~core <> None);
  check "take 2" true (Admission.take adm ~core <> None);
  check "drained" true (Admission.take adm ~core = None);
  check_int "pending" 0 (Admission.pending adm)

let test_token_bucket_refill () =
  let t = Runtime.create (cfg ()) in
  let adm =
    Runtime.enable_admission t
      ~policy:
        (Admission.Token_bucket { capacity = 10; rate_per_ms = 1.0; burst = 2.0 })
      ()
  in
  let core = (Runtime.app_cores t).(0) in
  (* The bucket starts full (= burst): two admits, then dry. *)
  check "t0 first" false (is_shed (offer adm ~core ~retries:0));
  check "t0 second" false (is_shed (offer adm ~core ~retries:0));
  (match offer adm ~core ~retries:0 with
  | Admission.Shed { reason; retry_after_ns } ->
      check "token shed" true (reason = Types.Shed_no_tokens);
      check "retry-after hint positive" true (retry_after_ns > 0.0)
  | Admission.Admitted -> Alcotest.fail "expected a token shed");
  (* 1.5 virtual ms later the bucket holds 1.5 tokens: one more admit,
     then dry again. *)
  let shed_then = ref None in
  Sim.schedule (Runtime.sim t) ~at:1.5e6 (fun () ->
      let a = offer adm ~core ~retries:0 in
      let b = offer adm ~core ~retries:0 in
      shed_then := Some (is_shed a, is_shed b));
  ignore (Runtime.run t ());
  check "refilled then dry" true (!shed_then = Some (false, true))

let test_queue_deadline_expiry () =
  let t = Runtime.create (cfg ()) in
  let adm =
    Runtime.enable_admission t
      ~policy:(Admission.Queue_deadline { capacity = 8; deadline_ns = 1_000.0 })
      ()
  in
  let core = (Runtime.app_cores t).(0) in
  check "admitted" false
    (is_shed
       (Admission.offer adm ~core ~tenant:0 ~payload:7 ~arrival_ns:0.0
          ~retries:0));
  let late = ref None in
  let reported = ref [] in
  let on_expired e = reported := e.Admission.e_payload :: !reported in
  Sim.schedule (Runtime.sim t) ~at:5_000.0 (fun () ->
      late := Some (Admission.take ~on_expired adm ~core));
  ignore (Runtime.run t ());
  (* The only entry waited 5 us against a 1 us deadline: dropped at
     dequeue, counted as expired, nothing returned — and reported to
     the caller exactly once. *)
  check "expired at dequeue" true (!late = Some None);
  Alcotest.(check (list int)) "expiry reported once" [ 7 ] !reported;
  check "nothing left to report" true (Admission.take ~on_expired adm ~core = None);
  Alcotest.(check (list int)) "still reported once" [ 7 ] !reported;
  let o = (Runtime.env t).System.overload in
  check_int "expired" 1 o.System.ol_expired;
  check_int "executed" 0 o.System.ol_executed

(* ---- Accounting invariants on a real run ---- *)

let test_accounting_invariants () =
  let t = Runtime.create (cfg ()) in
  let ol =
    {
      Openloop.default with
      Openloop.window_ns = 4e5;
      drain_ns = 2e5;
      arrival = Openloop.Poisson { rate_per_ms = 60.0 };
    }
  in
  let r = Openloop.drive t ol in
  let env = Runtime.env t in
  let o = env.System.overload in
  check "some traffic" true (o.System.ol_offered > 0);
  check_int "offered = admitted + shed" o.System.ol_offered
    (o.System.ol_admitted + o.System.ol_shed);
  check "executed + expired <= admitted" true
    (o.System.ol_executed + o.System.ol_expired <= o.System.ol_admitted);
  check "goodput <= completed" true (o.System.ol_goodput <= o.System.ol_completed);
  check "completed <= executed" true
    (o.System.ol_completed <= o.System.ol_executed);
  check_int "stats ops = executed entries" o.System.ol_executed
    r.Workload.ops;
  check_int "e2e sketch counts completions" o.System.ol_completed
    (Sketch.count env.System.e2e_lat);
  check "some goodput" true (o.System.ol_goodput > 0)

(* Request slots are reused once a request is closed and no queue
   entry names it, so under expiry (entries that never reach a worker)
   the accounting must not move. Every figure below was recorded
   before slots were reused, when each request kept its own slot for
   the whole run. *)
let test_deadline_slot_reuse_pinned () =
  let t = Runtime.create (cfg ()) in
  let ol =
    {
      Openloop.default with
      Openloop.arrival = Openloop.Poisson { rate_per_ms = 150.0 };
      window_ns = 4e6;
      drain_ns = 1e6;
      client_timeout_ns = 60_000.0;
      policy = Admission.Queue_deadline { capacity = 16; deadline_ns = 50_000.0 };
    }
  in
  let r = Openloop.drive t ol in
  let o = (Runtime.env t).System.overload in
  Alcotest.(check (list (pair string int)))
    "commits and overload counters"
    [
      ("commits", 702);
      ("offered", 8_852);
      ("admitted", 3_748);
      ("shed", 5_104);
      ("expired", 3_046);
      ("executed", 702);
      ("completed", 601);
      ("goodput", 601);
      ("wasted", 101);
      ("retries", 6_416);
      ("retry_exhausted", 1_835);
      ("queue_peak", 16);
    ]
    [
      ("commits", r.Workload.commits);
      ("offered", o.System.ol_offered);
      ("admitted", o.System.ol_admitted);
      ("shed", o.System.ol_shed);
      ("expired", o.System.ol_expired);
      ("executed", o.System.ol_executed);
      ("completed", o.System.ol_completed);
      ("goodput", o.System.ol_goodput);
      ("wasted", o.System.ol_wasted);
      ("retries", o.System.ol_retries);
      ("retry_exhausted", o.System.ol_retry_exhausted);
      ("queue_peak", o.System.ol_queue_peak);
    ]

(* The driver's memory follows its open requests, not every request
   it has made: the live heap at the end of the arrival window is the
   same for a window eight times longer. (A table holding every
   request ever made grew 1.6x here.) *)
let live_words_at_window_end ~window_ns =
  let t = Runtime.create (cfg ()) in
  let ol =
    {
      Openloop.default with
      Openloop.arrival = Openloop.Poisson { rate_per_ms = 120.0 };
      window_ns;
      drain_ns = 2e5;
      policy =
        Admission.Token_bucket { capacity = 8; rate_per_ms = 30.0; burst = 8.0 };
    }
  in
  let live = ref 0 in
  Sim.schedule (Runtime.sim t) ~at:window_ns (fun () ->
      Gc.full_major ();
      live := (Gc.stat ()).Gc.live_words);
  ignore (Openloop.drive t ol);
  !live

let test_memory_flat_in_run_length () =
  let short = live_words_at_window_end ~window_ns:4e6 in
  let long = live_words_at_window_end ~window_ns:32e6 in
  check
    (Printf.sprintf "live words 32 ms %d <= 1.1 x 4 ms %d" long short)
    true
    (float_of_int long <= 1.1 *. float_of_int short)

(* Two runs, same seed: bit-identical overload accounting. *)
let test_run_deterministic () =
  let snapshot () =
    let t = Runtime.create (cfg ~seed:9 ()) in
    let ol =
      {
        Openloop.default with
        Openloop.window_ns = 3e5;
        drain_ns = 1e5;
        arrival = Openloop.Poisson { rate_per_ms = 80.0 };
      }
    in
    let r = Openloop.drive t ol in
    let o = (Runtime.env t).System.overload in
    ( r.Workload.commits,
      o.System.ol_offered,
      o.System.ol_admitted,
      o.System.ol_goodput,
      o.System.ol_retries )
  in
  check "bit-identical reruns" true (snapshot () = snapshot ())

(* Merely instantiating the open-loop machinery (labelled splits,
   admission queues) must not perturb a closed-loop run: the labelled
   child streams draw nothing from the root. *)
let test_closed_loop_reproduction () =
  let run ~extra =
    let t = Runtime.create (cfg ~seed:13 ()) in
    if extra then begin
      ignore (Runtime.labeled_prng t ~label:"openloop-arrivals-0");
      ignore
        (Runtime.enable_admission t ~policy:(Admission.Reject { capacity = 4 }) ())
    end;
    let ht = Hashtable.create t ~n_buckets:32 in
    Hashtable.populate ht (Runtime.fork_prng t) ~n:64 ~key_range:256;
    let r =
      Workload.drive t ~duration_ns:2e5 (fun _core ctx prng () ->
          let k = Prng.int prng 256 in
          if Prng.int prng 100 < 50 then ignore (Hashtable.tx_add ctx ht k)
          else ignore (Hashtable.tx_remove ctx ht k))
    in
    (r.Workload.ops, r.Workload.commits, r.Workload.aborts)
  in
  check "closed-loop baseline reproduced" true (run ~extra:false = run ~extra:true)

(* ---- horizon_hit ---- *)

let test_completion_horizon_flag () =
  let clean = Runtime.create (cfg ()) in
  let r = Workload.run_to_completion clean (fun _core _ctx _prng -> ()) in
  check "clean completion unflagged" false r.Workload.horizon_hit;
  let t = Runtime.create (cfg ()) in
  let blocked = (Runtime.app_cores t).(0) in
  let r =
    Workload.run_to_completion t ~horizon_ns:1e6 (fun core _ctx _prng ->
        if core = blocked then
          (* Park forever: nobody wakes the spot. *)
          Sim.park (Sim.spot (Runtime.sim t)))
  in
  check "horizon termination flagged" true r.Workload.horizon_hit

let test_openloop_horizon_flag () =
  (* Healthy low load drains clean... *)
  let t = Runtime.create (cfg ()) in
  let ol =
    {
      Openloop.default with
      Openloop.window_ns = 3e5;
      drain_ns = 2e5;
      arrival = Openloop.Poisson { rate_per_ms = 10.0 };
    }
  in
  let r = Openloop.drive t ol in
  check "low load no horizon" false r.Workload.horizon_hit;
  (* ...heavy overload on unbounded queues leaves a backlog. *)
  let t = Runtime.create (cfg ()) in
  let ol =
    {
      ol with
      Openloop.arrival = Openloop.Poisson { rate_per_ms = 400.0 };
      policy = Admission.Unbounded;
      retry_budget = -1;
    }
  in
  let r = Openloop.drive t ol in
  check "overload backlog flagged" true r.Workload.horizon_hit

(* ---- Retry-storm metastability regression ---- *)

(* Measured per-core service capacity for the storm scenario. *)
let probe_sat () =
  let t = Runtime.create (cfg ~seed:5 ()) in
  let window_ns = 5e5 in
  let ol =
    {
      Openloop.default with
      Openloop.arrival = Openloop.Poisson { rate_per_ms = 500.0 };
      window_ns;
      drain_ns = 1e5;
      policy = Admission.Reject { capacity = 32 };
      client_timeout_ns = 0.0;
      retry_budget = 0;
    }
  in
  ignore (Openloop.drive t ol);
  let o = (Runtime.env t).System.overload in
  float_of_int o.System.ol_executed /. (window_ns /. 1e6)
  /. float_of_int (Array.length (Runtime.app_cores t))

let storm_run ~sat ~protected =
  let t = Runtime.create (cfg ~seed:11 ()) in
  let s = Tm2c_check.Stream.create () in
  Tm2c_check.Stream.attach s (Runtime.trace t);
  let window = 2e6 in
  let arrival =
    Openloop.Bursty
      {
        base_per_ms = 0.8 *. sat;
        burst_per_ms = 3.0 *. sat;
        burst_start_ns = window /. 8.0;
        burst_end_ns = 3.0 *. window /. 8.0;
      }
  in
  let ol =
    {
      Openloop.default with
      Openloop.arrival;
      window_ns = window;
      drain_ns = window /. 4.0;
      policy = (if protected then F.protected_policy ~sat else Admission.Unbounded);
      retry_budget = (if protected then 3 else -1);
    }
  in
  (* Goodput snapshot well after the burst ended (burst ends at 3/8 of
     the window; snapshot at 1/2): the tail delta is the recovery
     witness. *)
  let snap = ref 0 in
  Sim.schedule (Runtime.sim t) ~at:(window /. 2.0) (fun () ->
      snap := (Runtime.env t).System.overload.System.ol_goodput);
  let r = Openloop.drive t ol in
  Tm2c_check.Collector.detach (Runtime.trace t);
  let v = Tm2c_check.Stream.finish s in
  let o = (Runtime.env t).System.overload in
  ( Tm2c_check.Stream.n_failures v,
    o.System.ol_goodput,
    o.System.ol_goodput - !snap,
    r.Workload.horizon_hit )

let test_retry_storm_metastability () =
  let sat = probe_sat () in
  check "probe found capacity" true (sat > 1.0);
  let fail_u, total_u, tail_u, horizon_u = storm_run ~sat ~protected:false in
  let fail_p, total_p, tail_p, horizon_p = storm_run ~sat ~protected:true in
  (* Consistency is never the casualty: both runs checker-green. *)
  check_int "unprotected checker-green" 0 fail_u;
  check_int "protected checker-green" 0 fail_p;
  (* Metastable collapse: after the burst ends the unprotected system
     stays buried under its queue backlog and retry amplification —
     the protected one is back to serving the base load. *)
  check "unprotected left a backlog" true horizon_u;
  check "protected drained clean" false horizon_p;
  check
    (Printf.sprintf "tail goodput recovers only with admission (%d vs %d)"
       tail_p tail_u)
    true
    (tail_p >= 2 * max 1 tail_u);
  check
    (Printf.sprintf "total goodput wins with admission (%d vs %d)" total_p
       total_u)
    true
    (float_of_int total_p >= 1.5 *. float_of_int (max 1 total_u))

(* ---- The overload capacity curve (golden) ---- *)

(* Every figure of the curve is virtual time, so at this scale it is
   exact on any machine: the probed saturation, then each cell's
   goodput and p999 end-to-end tail (both in virtual time). *)
let curve_scale = { Exp.quick with Exp.window_ns = 4e6 }

let curve_ex = Exp.v curve_scale

let curve_sat = 47.625

let curve_pinned =
  [
    ("x0.5_raw", 195.0, 292.864);
    ("x0.5_adm", 194.25, 342.016);
    ("x1_raw", 60.0, 2834.432);
    ("x1_adm", 282.75, 415.744);
    ("x1.5_raw", 30.5, 3489.792);
    ("x1.5_adm", 251.25, 444.416);
    ("x2_raw", 25.75, 3817.472);
    ("x2_adm", 234.0, 485.376);
    ("burst_raw", 76.5, 3293.184);
    ("burst_adm", 271.25, 452.608);
  ]

let check_exact = Alcotest.(check (float 0.0))

let test_overload_curve_golden () =
  let sat = F.probe_saturation curve_ex in
  check_exact "saturation (arrivals/ms/core)" curve_sat sat;
  let cells = F.curve curve_ex ~sat in
  Alcotest.(check (list string))
    "cell names" (List.map (fun (n, _, _) -> n) curve_pinned) (List.map fst cells);
  List.iter
    (fun (name, goodput, p999) ->
      let c = List.assoc name cells in
      check_exact (name ^ " goodput_ms") goodput c.F.goodput_ms;
      check_exact (name ^ " p999_us") p999 c.F.p999_us)
    curve_pinned;
  (* The shape the pins encode, stated on its own: admission holds
     goodput and tail at twice saturation; without it goodput
     collapses. *)
  let cell name = List.assoc name cells in
  let peak =
    List.fold_left
      (fun acc (name, c) ->
        if String.ends_with ~suffix:"_adm" name then Float.max acc c.F.goodput_ms
        else acc)
      0.0 cells
  in
  let adm1 = cell "x1_adm" and adm2 = cell "x2_adm" and raw2 = cell "x2_raw" in
  check "protected 2x goodput >= 70% of protected peak" true
    (adm2.F.goodput_ms >= 0.7 *. peak);
  check "protected 2x p999 <= 4x the 1x p999" true
    (adm2.F.p999_us <= 4.0 *. adm1.F.p999_us);
  check "unprotected 2x goodput below half of protected 2x" true
    (raw2.F.goodput_ms < 0.5 *. adm2.F.goodput_ms)

(* Overload under faults: twice saturation through the protected
   policy, over a lossy, jittery interconnect with hardening on and
   the streaming checker attached. Shedding load may cost throughput,
   never consistency. *)
let test_overload_fault_checked () =
  let t = Runtime.create (Exp.config ~total:F.total ()) in
  (match Tm2c_noc.Fault.of_spec "drop=0.005,dup=0.01,delay=0.02@1500" with
  | Ok p -> Runtime.set_fault_plan t p
  | Error m -> Alcotest.fail m);
  Runtime.set_hardening t ~timeout_ns:60_000.0 ~lease_ns:250_000.0 ();
  let s = Tm2c_check.Stream.create () in
  Tm2c_check.Stream.attach s (Runtime.trace t);
  let window_ns = curve_scale.Exp.window_ns /. 2.0 in
  let ol =
    {
      Openloop.default with
      Openloop.arrival = Openloop.Poisson { rate_per_ms = 2.0 *. curve_sat };
      window_ns;
      drain_ns = curve_scale.Exp.window_ns /. 8.0;
      policy = F.protected_policy ~sat:curve_sat;
      retry_budget = 3;
    }
  in
  ignore (Openloop.drive t ol);
  Tm2c_check.Collector.detach (Runtime.trace t);
  let v = Tm2c_check.Stream.finish s in
  if Tm2c_check.Stream.n_failures v > 0 then
    Alcotest.fail (Tm2c_check.Stream.report_string s);
  let o = (Runtime.env t).System.overload in
  check_exact "goodput (good/ms)" 187.0
    (float_of_int o.System.ol_goodput /. (window_ns /. 1e6))

let suite =
  [
    ("qcheck: arrival stream deterministic", `Quick, fun () ->
        QCheck.Test.check_exn arrivals_deterministic);
    ("qcheck: mean interarrival", `Quick, fun () ->
        QCheck.Test.check_exn mean_interarrival);
    ("qcheck: Zipf weights monotone", `Quick, fun () ->
        QCheck.Test.check_exn zipf_monotone);
    ("Zipf empirical skew", `Quick, test_zipf_empirical);
    ("bursty rate schedule", `Quick, test_bursty_rate);
    ("reject policy: capacity bound", `Quick, test_reject_capacity);
    ("token bucket: drain and refill", `Quick, test_token_bucket_refill);
    ("queue deadline: expiry at dequeue", `Quick, test_queue_deadline_expiry);
    ("accounting invariants", `Quick, test_accounting_invariants);
    ("slot reuse under expiry: counters pinned", `Quick,
      test_deadline_slot_reuse_pinned);
    ("memory flat in run length", `Quick, test_memory_flat_in_run_length);
    ("run determinism", `Quick, test_run_deterministic);
    ("closed-loop baseline reproduction", `Quick, test_closed_loop_reproduction);
    ("run_to_completion horizon flag", `Quick, test_completion_horizon_flag);
    ("openloop horizon flag", `Quick, test_openloop_horizon_flag);
    ("retry-storm metastability", `Quick, test_retry_storm_metastability);
    ("overload capacity curve (golden)", `Quick, test_overload_curve_golden);
    ("overload x fault checked leg", `Quick, test_overload_fault_checked);
  ]
