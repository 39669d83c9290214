(* Open-loop overload: the capacity curve. Saturation is measured by
   probing (offer far more than the system can serve under load
   shedding and read off the executed rate), then offered load sweeps
   multiples of it, with and without admission control. The protected
   configuration (token-bucket admission at the measured service rate
   plus a bounded client retry budget) should degrade gracefully —
   goodput holds near peak at 2x offered load — while the unprotected
   one (unbounded queues, unbounded retries) collapses: queueing delay
   blows through the client deadline, so completions stop counting as
   goodput even though the cores stay busy. *)

open Tm2c_core
open Tm2c_apps

let total = 16

(* Per-core service capacity (arrivals/ms/core) under this mix. *)
let probe_saturation (ex : Exp.t) =
  let window_ns = ex.scale.window_ns /. 2.0 in
  let ol =
    {
      Openloop.default with
      Openloop.arrival = Openloop.Poisson { rate_per_ms = 500.0 };
      window_ns;
      drain_ns = window_ns /. 4.0;
      policy = Admission.Reject { capacity = 32 };
      (* Pure capacity probe: no client impatience in the way. *)
      client_timeout_ns = 0.0;
      retry_budget = 0;
    }
  in
  let t, _ = Exp.run ex (Exp.config ~total ()) (fun t () -> Openloop.drive t ol) in
  let o = (Runtime.env t).System.overload in
  let app = float_of_int (Array.length (Runtime.app_cores t)) in
  float_of_int o.System.ol_executed /. (window_ns /. 1e6) /. app

type cell = {
  goodput_ms : float;  (* in-deadline completions per virtual ms *)
  shed_pct : float;
  p99_us : float;  (* end-to-end (arrival -> commit) *)
  p999_us : float;
  horizon : bool;  (* drain horizon cut the run with a backlog *)
  env : System.env;  (* the run's metrics, for richer consumers *)
}

(* The protected admission policy at saturation [sat]: deadline-aware
   sizing with margin on both axes. A full queue must drain well
   inside the client deadline (capacity = service rate x deadline / 2),
   and tokens refill below the measured rate: at the rate itself the
   admitted load is critical (rho = 1) and queueing delay unbounded;
   subcritical admission keeps waits, and thus goodput, flat across
   any overload. *)
let protected_policy ~sat =
  let deadline_ms = Openloop.default.Openloop.client_deadline_ns /. 1e6 in
  let capacity = max 2 (int_of_float (sat *. deadline_ms /. 2.0)) in
  Admission.Token_bucket
    { capacity; rate_per_ms = 0.8 *. sat; burst = float_of_int capacity }

let run_cell (ex : Exp.t) ~sat ~protected ~arrival =
  let ol =
    {
      Openloop.default with
      Openloop.arrival;
      window_ns = ex.scale.window_ns;
      drain_ns = ex.scale.window_ns /. 4.0;
      policy = (if protected then protected_policy ~sat else Admission.Unbounded);
      retry_budget = (if protected then 3 else -1);
    }
  in
  let t, r = Exp.run ex (Exp.config ~total ()) (fun t () -> Openloop.drive t ol) in
  let env = Runtime.env t in
  let o = env.System.overload in
  {
    goodput_ms = float_of_int o.System.ol_goodput /. (ol.Openloop.window_ns /. 1e6);
    shed_pct =
      (if o.System.ol_offered = 0 then 0.0
       else 100.0 *. float_of_int o.System.ol_shed /. float_of_int o.System.ol_offered);
    p99_us = Tm2c_engine.Sketch.percentile env.System.e2e_lat 99.0 /. 1e3;
    p999_us = Tm2c_engine.Sketch.percentile env.System.e2e_lat 99.9 /. 1e3;
    horizon = r.Workload.horizon_hit;
    env;
  }

(* The capacity curve at saturation [sat]: an unprotected ("_raw")
   and a protected ("_adm") cell per offered-load multiple ("x0.5" ..
   "x2"), then the flash crowd ("burst"): 3x saturation for a quarter
   of the window on top of a healthy 0.8x base load, the
   metastable-collapse scenario. Cells run in list order, the order in
   which the JSON export records them. *)
let multiples = [ 0.5; 1.0; 1.5; 2.0 ]

let curve (ex : Exp.t) ~sat =
  let pair name arrival =
    let raw = run_cell ex ~sat ~protected:false ~arrival in
    let adm = run_cell ex ~sat ~protected:true ~arrival in
    [ (name ^ "_raw", raw); (name ^ "_adm", adm) ]
  in
  let sweep =
    List.concat_map
      (fun m ->
        pair (Printf.sprintf "x%g" m) (Openloop.Poisson { rate_per_ms = m *. sat }))
      multiples
  in
  let burst =
    pair "burst"
      (Openloop.Bursty
         {
           base_per_ms = 0.8 *. sat;
           burst_per_ms = 3.0 *. sat;
           burst_start_ns = ex.scale.window_ns /. 4.0;
           burst_end_ns = ex.scale.window_ns /. 2.0;
         })
  in
  sweep @ burst

let run (ex : Exp.t) =
  let sat = probe_saturation ex in
  Printf.printf "measured saturation: %.1f arrivals/ms/core\n%!" sat;
  let cells = curve ex ~sat in
  let cell name = List.assoc name cells in
  Exp.print_table
    ~title:
      "Overload - goodput vs offered load (multiples of measured saturation)"
    ~header:
      [
        "xload"; "good/ms"; "p99us"; "good/ms(adm)"; "shed%(adm)"; "p99us(adm)";
      ]
    (List.map
       (fun m ->
         let u = cell (Printf.sprintf "x%g_raw" m)
         and p = cell (Printf.sprintf "x%g_adm" m) in
         ( Printf.sprintf "%.2fx" m,
           [ u.goodput_ms; u.p99_us; p.goodput_ms; p.shed_pct; p.p99_us ] ))
       multiples);
  let u = cell "burst_raw" and p = cell "burst_adm" in
  Exp.print_table ~title:"Overload - flash crowd (3x burst over 0.8x base)"
    ~header:[ "config"; "good/ms"; "shed%"; "p99us" ]
    [
      ("unprotected", [ u.goodput_ms; u.shed_pct; u.p99_us ]);
      ("admission+budget", [ p.goodput_ms; p.shed_pct; p.p99_us ]);
    ]
