(* Bechamel micro-benchmarks of the host-side primitives underlying
   the simulator and the TM2C protocol: event heap, PRNG, lock table,
   contention-manager decisions, history-log lines, trace-ring records,
   JSON numbers, the event core's delay, delivery and park/wake paths,
   and a small end-to-end simulation. *)

open Bechamel
open Toolkit
open Tm2c_engine
open Tm2c_core

let bench_heap =
  Test.make ~name:"heap-push-pop-256" (Staged.stage (fun () ->
      let h = Heap.create () in
      for i = 0 to 255 do
        Heap.push h (float_of_int ((i * 7919) mod 997)) i
      done;
      let rec drain () = match Heap.pop_min h with Some _ -> drain () | None -> () in
      drain ()))

let bench_prng =
  let prng = Prng.create ~seed:1 in
  Test.make ~name:"prng-next" (Staged.stage (fun () -> ignore (Prng.next prng)))

let mk_holder core =
  {
    Types.h_core = core;
    h_attempt = core * 3;
    h_committed = core;
    h_clock =
      {
        h_est_start_ns = float_of_int (core * 17);
        h_effective_ns = float_of_int (core * 29);
        h_granted_ns = 0.0;
      };
  }

let bench_locktable =
  Test.make ~name:"locktable-acquire-release" (Staged.stage (fun () ->
      let lt = Locktable.create () in
      for a = 0 to 63 do
        Locktable.add_reader lt a (mk_holder (a mod 8))
      done;
      for a = 0 to 63 do
        Locktable.remove_reader lt a ~core:(a mod 8) ~attempt:((a mod 8) * 3)
      done))

let bench_cm =
  let requester = mk_holder 1 in
  let enemies = List.init 4 (fun i -> mk_holder (i + 2)) in
  Test.make ~name:"faircm-decide" (Staged.stage (fun () ->
      ignore (Cm.decide Cm.Fair_cm ~requester ~enemies)))

let bench_sim =
  Test.make ~name:"sim-1k-events" (Staged.stage (fun () ->
      let sim = Sim.create () in
      for _ = 1 to 10 do
        Sim.spawn sim (fun () ->
            for _ = 1 to 50 do
              Sim.delay 10.0
            done)
      done;
      ignore (Sim.run sim ())))

(* The event core on a warm simulation that never drains: processes
   loop forever and each run is one [Sim.run ~until] of 500 virtual ns.
   A row's ns and words are per run; divide by the events it names.
   [setup] spawns the processes into a fresh simulation, made when the
   row runs. *)
let sim_row name setup =
  Test.make_with_resource ~name Test.uniq
    ~allocate:(fun () ->
      let sim = Sim.create () in
      setup sim;
      sim)
    ~free:ignore
    (Staged.stage (fun sim -> ignore (Sim.run sim ~until:(Sim.now sim +. 500.0) ())))

let forever f () =
  while true do
    f ()
  done

(* Two processes delay 1 ns in turn, so the event set is never empty
   and no delay is elided: 1,000 suspending delays per run. *)
let bench_delay_roundtrip =
  sim_row "sim-delay-roundtrip" (fun sim ->
      for _ = 1 to 2 do
        Sim.spawn sim (forever (fun () -> Sim.delay 1.0))
      done)

(* A sender [send_at]s one message 0.5 ns out every 1 ns to a receiver
   parked in a charged mailbox: 500 port deliveries per run, each
   handed straight to the receiver, plus the sender's 500 delays. *)
let bench_port_delivery =
  sim_row "sim-port-delivery" (fun sim ->
      let mb = Mailbox.create ~recv_charge_ns:0.25 sim in
      Sim.spawn sim (forever (fun () -> ignore (Mailbox.recv mb)));
      Sim.spawn sim
        (forever (fun () ->
             Mailbox.send_at mb ~at:(Sim.now sim +. 0.5) 0;
             Sim.delay 1.0)))

(* A waker delays 1 ns and wakes a process parked in a spot, which
   parks again: 500 park/wake cycles and 500 delays per run. *)
let bench_park_wake =
  sim_row "sim-park-wake" (fun sim ->
      let spot = Sim.spot sim in
      Sim.spawn sim (forever (fun () -> Sim.park spot));
      Sim.spawn sim
        (forever (fun () ->
             Sim.delay 1.0;
             Sim.wake spot)))

let bench_tm2c =
  Test.make ~name:"tm2c-100-counter-txs" (Staged.stage (fun () ->
      let cfg = { Runtime.default_config with total_cores = 4; service_cores = 2 } in
      let t = Runtime.create cfg in
      let counter = Tm2c_memory.Alloc.alloc (Runtime.alloc t) ~words:1 in
      Runtime.start_services t;
      Array.iter
        (fun core ->
          let ctx = Runtime.app_ctx t core in
          Runtime.spawn_app t core (fun () ->
              for _ = 1 to 50 do
                Tx.atomic ctx (fun () ->
                    Tx.write ctx counter (Tx.read ctx counter + 1))
              done))
        (Runtime.app_cores t);
      ignore (Runtime.run t ())))

(* One event per row of the description table, with mid-sized
   integers and timestamps whose fractions fill most of a hex float,
   as in a long run's log. *)
let histlog_events =
  List.mapi
    (fun i (k : Event.kind) ->
      let value (name, (ty : Event.ty)) : Event.value =
        match ty with
        | T_int -> Int (1000 + (37 * i))
        | T_float -> Float (1234.567 *. float_of_int (i + 1))
        | T_bool -> Bool (i mod 2 = 0)
        | T_ints -> Ints [ 4096 + i; 8192 + i; 12288 + i ]
        | T_str -> (
            match name with
            | "conflict" -> Str (Types.conflict_to_string Types.Raw)
            | "reason" -> Str (Types.shed_reason_to_string Types.Shed_queue_full)
            | _ -> Str "read")
      in
      ( 3.9e7 +. (0.3 *. float_of_int i),
        Result.get_ok (Event.of_fields k.tag (List.map value k.fields)) ))
    Event.kinds

(* One run writes every row's line, so ns per line is the row's time
   over [List.length Event.kinds]. *)
let bench_histlog =
  Test.make_with_resource ~name:"histlog-put" Test.uniq
    ~allocate:(fun () -> Tm2c_check.Histlog.create_writer Filename.null)
    ~free:Tm2c_check.Histlog.close_writer
    (Staged.stage (fun w ->
         List.iter (fun (t, ev) -> Tm2c_check.Histlog.put w t ev) histlog_events))

(* A full trace ring (default capacity) recording one event per row of
   the description table, so every record overwrites a slot: ns and
   words per event are the row's over [List.length Event.kinds]. *)
let bench_trace_record =
  let record tr = List.iter (fun (t, ev) -> Trace.record tr ~now:t ev) histlog_events in
  Test.make_with_resource ~name:"trace-record" Test.uniq
    ~allocate:(fun () ->
      let tr = Trace.create ~codec:Event.ring_codec () in
      Trace.enable tr;
      while Trace.dropped tr = 0 do
        record tr
      done;
      tr)
    ~free:Trace.clear
    (Staged.stage record)

(* A Perfetto timeline's numbers: 32 timestamps and 32 durations, in
   µs from virtual ns (ns /. 1000.0) with the fractional ns that sums of
   link and service delays leave. ns per float is the row's time over
   64. *)
let json_floats =
  Tm2c_harness.Json.List
    (List.init 64 (fun i ->
         let ns =
           if i mod 2 = 0 then 3.9e7 +. (1234.567 *. float_of_int i)
           else 250.0 +. (41.3 *. float_of_int i)
         in
         Tm2c_harness.Json.Float (ns /. 1000.0)))

let bench_json =
  Test.make ~name:"json-float" (Staged.stage (fun () ->
      ignore (Tm2c_harness.Json.to_string ~indent:false json_floats)))

let tests =
  Test.make_grouped ~name:"tm2c"
    [
      bench_heap; bench_prng; bench_locktable; bench_cm; bench_histlog; bench_trace_record;
      bench_json; bench_sim;
      bench_delay_roundtrip; bench_port_delivery; bench_park_wake; bench_tm2c;
    ]

(* Words per run from the runtime's own counters, [Gc.minor_words]
   and [Gc.quick_stat]'s promoted words, around [alloc_runs] runs that
   follow as many warm-up runs; a minor collection at each end puts
   what survives the runs on the promoted side. (Bechamel's
   [minor_allocated] reads far below [Gc.minor_words] on OCaml 5.1:
   0.0 for sim-park-wake.) *)
let alloc_runs = 200

let gc_words elt =
  let (Test.V { fn; kind; allocate; free }) = Test.Elt.fn elt in
  match kind with
  | Test.Uniq ->
      let fn = fn `Init in
      let r = Test.Uniq.prj (allocate ()) in
      let runs () =
        for _ = 1 to alloc_runs do
          ignore (Sys.opaque_identity (fn r))
        done
      in
      runs ();
      Gc.minor ();
      let m0 = Gc.minor_words () and p0 = (Gc.quick_stat ()).Gc.promoted_words in
      runs ();
      Gc.minor ();
      let m1 = Gc.minor_words () and p1 = (Gc.quick_stat ()).Gc.promoted_words in
      free (Test.Uniq.inj r);
      let per w = w /. float_of_int alloc_runs in
      (per (m1 -. m0), per (p1 -. p0))
  | Test.Multiple -> (Float.nan, Float.nan)

(* One row per benchmark: host ns per run (Bechamel's OLS estimate),
   then minor-heap words and words promoted to the major heap per run
   ([gc_words]). *)
let run () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let clock = Instance.monotonic_clock in
  let ns = Analyze.all ols clock (Benchmark.all cfg [ clock ] tests) in
  let estimate name =
    match Hashtbl.find_opt ns name with
    | Some r -> (
        match Analyze.OLS.estimates r with
        | Some (est :: _) -> Printf.sprintf "%12.1f" est
        | Some [] | None -> Printf.sprintf "%12s" "-")
    | None -> Printf.sprintf "%12s" "-"
  in
  print_endline "\nMicro-benchmarks (per run; ns an OLS estimate, words from Gc counters):";
  Printf.printf "  %-32s %12s %12s %12s\n" "" "ns" "minor words" "promoted";
  List.iter
    (fun test ->
      let name = Test.Elt.name test in
      let minor, promoted = gc_words test in
      Printf.printf "  %-32s %s %12.1f %12.1f\n" name (estimate name) minor promoted)
    (Test.elements tests);
  flush stdout
