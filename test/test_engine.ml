(* Unit and property tests for the discrete-event engine. *)

open Tm2c_engine

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

(* ---- Heap ---- *)

let test_heap_order () =
  let h = Heap.create () in
  List.iter (fun (p, v) -> Heap.push h p v) [ (3.0, "c"); (1.0, "a"); (2.0, "b") ];
  check_int "length" 3 (Heap.length h);
  Alcotest.(check (option (pair (float 0.0) string))) "min" (Some (1.0, "a")) (Heap.pop_min h);
  Alcotest.(check (option (pair (float 0.0) string))) "next" (Some (2.0, "b")) (Heap.pop_min h);
  Alcotest.(check (option (pair (float 0.0) string))) "last" (Some (3.0, "c")) (Heap.pop_min h);
  check "empty" true (Heap.pop_min h = None)

let test_heap_fifo_ties () =
  let h = Heap.create () in
  for i = 0 to 99 do
    Heap.push h 5.0 i
  done;
  for i = 0 to 99 do
    match Heap.pop_min h with
    | Some (_, v) -> check_int "fifo order on equal priorities" i v
    | None -> Alcotest.fail "heap empty too early"
  done

let test_heap_peek () =
  let h = Heap.create () in
  check "peek empty" true (Heap.peek_min h = None);
  Heap.push h 7.5 ();
  check_float "peek" 7.5 (Option.get (Heap.peek_min h));
  check_int "peek does not remove" 1 (Heap.length h)

let heap_sorted_prop =
  QCheck.Test.make ~name:"heap drains in sorted order" ~count:200
    QCheck.(list (float_bound_inclusive 1000.0))
    (fun priorities ->
      let h = Heap.create () in
      List.iter (fun p -> Heap.push h p p) priorities;
      let rec drain acc =
        match Heap.pop_min h with Some (p, _) -> drain (p :: acc) | None -> List.rev acc
      in
      let drained = drain [] in
      drained = List.sort compare priorities)

(* Model test: an op sequence against a FIFO-queue oracle, one queue
   per priority 0-5, popping from the first non-empty one. Small
   integer priorities make ties frequent, so the insertion-order
   (FIFO) tie-break is exercised, not just ordering. *)
let heap_model_prop =
  QCheck.Test.make ~name:"heap matches sorted-list oracle (incl. FIFO ties)"
    ~count:300
    QCheck.(list (option (int_bound 5)))
    (fun ops ->
      let h = Heap.create () in
      let model = Array.init 6 (fun _ -> Queue.create ()) in
      let seq = ref 0 in
      let ok = ref true in
      let pop_oracle () =
        match Array.find_opt (fun q -> not (Queue.is_empty q)) model with
        | None -> None
        | Some q -> Some (Queue.pop q)
      in
      let step op =
        match op with
        | Some p ->
            let prio = float_of_int p in
            Heap.push h prio !seq;
            Queue.push (prio, !seq) model.(p);
            incr seq
        | None -> (
            match (Heap.pop_min h, pop_oracle ()) with
            | None, None -> ()
            | Some got, Some want -> if got <> want then ok := false
            | _ -> ok := false)
      in
      List.iter step ops;
      (* Drain both to catch divergence left in the remaining state. *)
      while Heap.length h > 0 || Array.exists (fun q -> not (Queue.is_empty q)) model do
        step None
      done;
      !ok)

(* The pop_min space-leak fix: popped values must become collectable
   even while the heap still holds other entries (vacated slots alias a
   live entry instead of pinning the popped one). *)
let test_heap_no_retention () =
  let n = 32 in
  let h = Heap.create () in
  let weak = Weak.create n in
  for i = 0 to n - 1 do
    let v = ref i in
    Weak.set weak i (Some v);
    Heap.push h (float_of_int i) v
  done;
  let live lo hi =
    let k = ref 0 in
    for i = lo to hi do
      if Weak.check weak i then incr k
    done;
    !k
  in
  for _ = 1 to n / 2 do
    ignore (Heap.pop_min h)
  done;
  Gc.full_major ();
  check_int "popped half collectable" 0 (live 0 ((n / 2) - 1));
  check_int "queued half retained" (n / 2) (live (n / 2) (n - 1));
  for _ = 1 to n / 2 do
    ignore (Heap.pop_min h)
  done;
  Gc.full_major ();
  check_int "all collectable once drained" 0 (live 0 (n - 1))

(* The drain-shrink fix: a heap that grew for a burst must give the
   memory back once occupancy falls below a quarter of capacity, and
   shrinking must leave the structure intact for a later regrow. *)
let test_heap_shrink_regrow () =
  let h = Heap.create () in
  let n = 4096 in
  for i = 0 to n - 1 do
    Heap.push h (float_of_int i) i
  done;
  let grown = Heap.capacity h in
  check "grew to hold the burst" true (grown >= n);
  for _ = 1 to n - 64 do
    ignore (Heap.pop_min h)
  done;
  check "capacity released on drain" true (Heap.capacity h < grown / 2);
  check_int "entries intact" 64 (Heap.length h);
  for i = 0 to n - 1 do
    Heap.push h (float_of_int (n + i)) i
  done;
  let prev = ref neg_infinity in
  let sorted = ref true in
  while Heap.length h > 0 do
    match Heap.pop_min h with
    | Some (p, _) ->
        if p < !prev then sorted := false;
        prev := p
    | None -> ()
  done;
  check "sorted drain after shrink and regrow" true !sorted

(* ---- Wheel ---- *)

let test_wheel_fifo_ties () =
  let w = Wheel.create () in
  for i = 0 to 99 do
    Wheel.push w 5.0 i
  done;
  for i = 0 to 99 do
    match Wheel.pop_min w with
    | Some (_, v) -> check_int "fifo order on equal priorities" i v
    | None -> Alcotest.fail "wheel empty too early"
  done

let test_wheel_take_below () =
  let w = Wheel.create () in
  let scratch = Array.make 1 0.0 in
  check_int "empty" (-1) (Wheel.take_below w 100.0 scratch);
  check "scratch = infinity when empty" true (scratch.(0) = infinity);
  Wheel.push w 50.0 7;
  Wheel.push w 150.0 8;
  check_int "below limit pops" 7 (Wheel.take_below w 100.0 scratch);
  check_float "scratch carries the popped priority" 50.0 scratch.(0);
  check_int "past limit stays queued" (-1) (Wheel.take_below w 100.0 scratch);
  check_float "scratch carries the blocked minimum" 150.0 scratch.(0);
  check_int "blocked entry still queued" 1 (Wheel.length w)

(* Differential test against the reference {!Heap}: the calendar queue
   must pop exactly what the heap pops — same priorities, same FIFO
   tie order — under same-timestamp bursts (tiny priority pool, so
   ties are constant) and far-future outliers (entries far past the
   bucket window, exercising the overflow tier and its migration back
   into the buckets). Pushes respect the wheel's precondition: never
   below the last popped priority. *)
let wheel_heap_differential =
  QCheck.Test.make ~name:"wheel matches heap (ties, far-future outliers)"
    ~count:300
    QCheck.(list (option (pair (int_bound 5) bool)))
    (fun ops ->
      let w = Wheel.create ~n_buckets:16 ~width_ns:32.0 () in
      let h = Heap.create () in
      let floor = ref 0.0 in
      let seq = ref 0 in
      let ok = ref true in
      let pop_both () =
        match (Wheel.pop_min w, Heap.pop_min h) with
        | None, None -> false
        | Some (pw, vw), Some (ph, vh) ->
            if pw <> ph || vw <> vh then ok := false else floor := pw;
            true
        | _ ->
            ok := false;
            false
      in
      List.iter
        (fun op ->
          match op with
          | Some (p, far) ->
              let prio =
                !floor
                +. (float_of_int p *. 13.0)
                +. (if far then 1.0e9 else 0.0)
              in
              Wheel.push w prio !seq;
              Heap.push h prio !seq;
              incr seq
          | None -> ignore (pop_both ()))
        ops;
      while pop_both () do
        ()
      done;
      !ok && Wheel.is_empty w && Heap.is_empty h)

(* ---- Prng ---- *)

let test_prng_deterministic () =
  let a = Prng.create ~seed:123 and b = Prng.create ~seed:123 in
  for _ = 1 to 100 do
    check "same seed, same stream" true (Prng.next a = Prng.next b)
  done

let test_prng_seeds_differ () =
  let a = Prng.create ~seed:1 and b = Prng.create ~seed:2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.next a = Prng.next b then incr same
  done;
  check "different seeds diverge" true (!same < 4)

let test_prng_split () =
  let a = Prng.create ~seed:9 in
  let b = Prng.split a in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.next a = Prng.next b then incr same
  done;
  check "split streams diverge" true (!same < 4)

let prng_int_bounds =
  QCheck.Test.make ~name:"Prng.int stays in bounds" ~count:500
    QCheck.(pair (int_bound 1000000) (int_range 1 1000))
    (fun (seed, bound) ->
      let p = Prng.create ~seed in
      let v = Prng.int p bound in
      v >= 0 && v < bound)

let prng_float_bounds =
  QCheck.Test.make ~name:"Prng.float in [0,1)" ~count:500 QCheck.(int_bound 1000000)
    (fun seed ->
      let p = Prng.create ~seed in
      let v = Prng.float p in
      v >= 0.0 && v < 1.0)

let test_prng_uniformity () =
  (* Loose chi-square style check over 16 cells. *)
  let p = Prng.create ~seed:77 in
  let cells = Array.make 16 0 in
  let n = 16_000 in
  for _ = 1 to n do
    let i = Prng.int p 16 in
    cells.(i) <- cells.(i) + 1
  done;
  Array.iter
    (fun c ->
      check "cell within 20% of expectation" true
        (abs (c - (n / 16)) < n / 16 / 5))
    cells

(* split_label: same label, same child; labels are independent
   streams; and — the property the fault layer depends on — deriving a
   child never advances the parent. *)
let test_prng_split_label () =
  let a = Prng.create ~seed:9 and a' = Prng.create ~seed:9 in
  let c1 = Prng.split_label a ~label:"fault" in
  let c2 = Prng.split_label a' ~label:"fault" in
  for _ = 1 to 32 do
    check "same label, same stream" true (Prng.next c1 = Prng.next c2)
  done;
  let d = Prng.split_label a ~label:"other" in
  let c3 = Prng.split_label a ~label:"fault" in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.next d = Prng.next c3 then incr same
  done;
  check "distinct labels diverge" true (!same < 4)

let test_prng_split_label_parent_unperturbed () =
  let a = Prng.create ~seed:31 and b = Prng.create ~seed:31 in
  let expected = List.init 64 (fun _ -> Prng.next b) in
  let _child = Prng.split_label a ~label:"fault" in
  let got = List.init 64 (fun _ -> Prng.next a) in
  check "parent stream bit-for-bit unchanged" true (got = expected)

(* Statistical smoke over the labeled child: cell balance like the
   parent's uniformity test, so a degenerate label hash (all children
   collapsing onto a few states) would show up immediately. *)
let test_prng_split_label_uniform () =
  let p = Prng.split_label (Prng.create ~seed:77) ~label:"fault" in
  let cells = Array.make 16 0 in
  let n = 16_000 in
  for _ = 1 to n do
    let i = Prng.int p 16 in
    cells.(i) <- cells.(i) + 1
  done;
  Array.iter
    (fun c ->
      check "cell within 20% of expectation" true
        (abs (c - (n / 16)) < n / 16 / 5))
    cells

(* ---- Sim ---- *)

let test_sim_delay_order () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.spawn sim (fun () ->
      Sim.delay 30.0;
      log := "b" :: !log);
  Sim.spawn sim (fun () ->
      Sim.delay 10.0;
      log := "a" :: !log;
      Sim.delay 40.0;
      log := "c" :: !log);
  let _ = Sim.run sim () in
  Alcotest.(check (list string)) "event order" [ "a"; "b"; "c" ] (List.rev !log);
  check_float "final time" 50.0 (Sim.now sim)

let test_sim_spawn_counts () =
  let sim = Sim.create () in
  for _ = 1 to 5 do
    Sim.spawn sim (fun () -> Sim.delay 1.0)
  done;
  let _ = Sim.run sim () in
  check_int "spawned" 5 (Sim.spawned sim);
  check_int "finished" 5 (Sim.finished sim)

let test_sim_until_horizon () =
  let sim = Sim.create () in
  let count = ref 0 in
  Sim.spawn sim (fun () ->
      while true do
        Sim.delay 10.0;
        incr count
      done);
  let _ = Sim.run sim ~until:105.0 () in
  check_int "stopped at horizon" 10 !count;
  check_float "clock clamped" 105.0 (Sim.now sim)

(* Regression for the horizon-clamp bug: when the queue drains before
   [until], the clock must still land on [until] — callers advance
   virtual time window by window and a short window must not leave the
   clock stuck at the last event. *)
let test_sim_until_drain_clamp () =
  let sim = Sim.create () in
  Sim.spawn sim (fun () -> Sim.delay 10.0);
  let _ = Sim.run sim ~until:100.0 () in
  check_float "clock lands on the horizon" 100.0 (Sim.now sim);
  (* Next window starts with nothing queued at all. *)
  let _ = Sim.run sim ~until:250.0 () in
  check_float "advances across an empty window" 250.0 (Sim.now sim)

let test_sim_nested_spawn () =
  let sim = Sim.create () in
  let hits = ref 0 in
  Sim.spawn sim (fun () ->
      Sim.delay 5.0;
      Sim.spawn sim (fun () ->
          Sim.delay 5.0;
          incr hits);
      incr hits);
  let _ = Sim.run sim () in
  check_int "both ran" 2 !hits;
  check_float "time" 10.0 (Sim.now sim)

let test_sim_suspend_resume () =
  let sim = Sim.create () in
  let spot = Sim.spot sim in
  let cell = ref 0 in
  let got = ref 0 in
  let woke_at = ref 0.0 in
  Sim.spawn sim (fun () ->
      Sim.park spot;
      got := !cell;
      woke_at := Sim.now sim);
  Sim.spawn sim (fun () ->
      Sim.delay 42.0;
      check "parked" true (Sim.is_parked spot);
      cell := 7;
      Sim.wake spot;
      check "woken" false (Sim.is_parked spot));
  let _ = Sim.run sim () in
  check_int "value" 7 !got;
  check_float "resumed at waker's time" 42.0 !woke_at;
  check_int "both finished" 2 (Sim.finished sim)

(* Each process holds one continuation slot from its start to its end,
   and a freed slot is taken again before the table grows: 1,000
   short-lived processes, at most four alive at once (the driver and
   three children), fit in the table's first 16 slots. *)
let test_sim_slots_reused () =
  let sim = Sim.create () in
  Sim.spawn sim (fun () ->
      for i = 0 to 999 do
        Sim.spawn sim (fun () -> Sim.delay 1.0);
        if i mod 3 = 2 then Sim.delay 2.0
      done);
  ignore (Sim.run sim ());
  check_int "all finished" 1001 (Sim.finished sim);
  check "at most 16 slots" true (Sim.process_slots sim <= 16)

(* [run] sets the ambient simulation for its length and restores the
   caller's on exit, so a process may run another simulation to
   completion and go on delaying in its own. *)
let test_sim_nested_run () =
  let outer = Sim.create () in
  let inner_end = ref 0.0 in
  Sim.spawn outer (fun () ->
      Sim.delay 1.0;
      let inner = Sim.create () in
      Sim.spawn inner (fun () -> Sim.delay 5.0);
      ignore (Sim.run inner ());
      inner_end := Sim.now inner;
      Sim.delay 1.0);
  ignore (Sim.run outer ());
  check_float "inner ran" 5.0 !inner_end;
  check_float "outer went on" 2.0 (Sim.now outer);
  check_int "outer finished" 1 (Sim.finished outer)

let test_sim_outside_process () =
  Alcotest.check_raises "delay outside process"
    (Invalid_argument "Sim.delay: not inside a simulation process") (fun () ->
      (* Make sure no ambient sim is set. *)
      Sim.delay 1.0)

(* A NaN time would pop ahead of finite ones and +inf reads as a
   drained queue: every entry point refuses both (and -inf), naming
   the call, and leaves the queue as it was. *)
let test_sim_non_finite_times () =
  let bad = [ Float.nan; Float.infinity; Float.neg_infinity ] in
  let raises name x f =
    Alcotest.check_raises
      (Printf.sprintf "%s %g" name x)
      (Invalid_argument (Printf.sprintf "%s: non-finite time %g" name x))
      f
  in
  let sim = Sim.create () in
  let port = Sim.register_port sim (fun _ -> ()) in
  let fired = ref [] in
  Sim.schedule sim ~at:100.0 (fun () -> fired := 100.0 :: !fired);
  List.iter
    (fun x ->
      raises "Sim.schedule" x (fun () -> Sim.schedule sim ~at:x ignore);
      raises "Sim.schedule_port" x (fun () ->
          Sim.schedule_port sim ~at:x ~port ~slot:0))
    bad;
  ignore (Sim.run sim ());
  check "finite event still fires" true (!fired = [ 100.0 ]);
  List.iter
    (fun x ->
      let sim = Sim.create () in
      Sim.spawn sim (fun () -> Sim.delay x);
      raises "Sim.delay" x (fun () -> ignore (Sim.run sim ())))
    bad

let test_sim_determinism () =
  let run () =
    let sim = Sim.create () in
    let prng = Prng.create ~seed:5 in
    let log = ref [] in
    for i = 0 to 9 do
      Sim.spawn sim (fun () ->
          Sim.delay (Prng.float prng *. 100.0);
          log := i :: !log)
    done;
    let _ = Sim.run sim () in
    !log
  in
  check "two identical runs" true (run () = run ())

(* ---- Sim.every ---- *)

(* One tick alone takes exactly the slots of the hand-rolled loop it
   replaces: same (time, push order) for every event, so the same
   interleaving, dispatch count and elisions. The workload lands on
   tick instants from every side — a process delaying onto the edges,
   callbacks pushed at time 0 and from a callback at run time — and
   each tick pushes an event onto the next edge, which must run before
   the next tick (the tick reschedules after its callback). *)
let test_every_matches_loop () =
  let run install =
    let sim = Sim.create () in
    let log = ref [] in
    let note who = log := (who, Sim.now sim) :: !log in
    let on_tick at =
      note "tick";
      Sim.schedule sim ~at:(at +. 100.0) (fun () -> note "after tick")
    in
    install sim on_tick;
    Sim.spawn sim (fun () ->
        for _ = 1 to 6 do
          Sim.delay 50.0;
          note "process"
        done);
    List.iter
      (fun at -> Sim.schedule sim ~at (fun () -> note "edge"))
      [ 100.0; 150.0; 200.0 ];
    Sim.schedule sim ~at:120.0 (fun () ->
        note "pusher";
        Sim.schedule sim ~at:200.0 (fun () -> note "pushed"));
    let processed = Sim.run sim () in
    (List.rev !log, processed, Sim.elided sim)
  in
  let every sim on_tick =
    Sim.every sim ~period:100.0 (fun at ->
        on_tick at;
        at < 300.0)
  in
  let loop sim on_tick =
    let rec tick at () =
      on_tick at;
      if at < 300.0 then Sim.schedule sim ~at:(at +. 100.0) (tick (at +. 100.0))
    in
    let first = Sim.now sim +. 100.0 in
    Sim.schedule sim ~at:first (tick first)
  in
  let log_e, processed_e, elided_e = run every in
  let log_l, processed_l, elided_l = run loop in
  Alcotest.(check (list (pair string (float 0.0)))) "same interleaving" log_l log_e;
  check_int "same dispatch count" processed_l processed_e;
  check_int "same elisions" elided_l elided_e

(* Two ticks that never ask to stop still end a run that drains: each
   stops once only ticks remain queued. *)
let test_every_two_ticks_drain () =
  let sim = Sim.create () in
  let a = ref 0 and b = ref 0 in
  Sim.every sim ~period:100.0 (fun _ ->
      incr a;
      true);
  Sim.every sim ~period:100.0 (fun _ ->
      incr b;
      true);
  Sim.spawn sim (fun () -> Sim.delay 250.0);
  ignore (Sim.run sim ());
  check_int "first tick stopped after the drain" 3 !a;
  check_int "second tick stopped too" 3 !b;
  check_float "clock stopped at the last tick" 300.0 (Sim.now sim)

(* ---- Mailbox ---- *)

let test_mailbox_fifo () =
  let sim = Sim.create () in
  let mb = Mailbox.create sim in
  let got = ref [] in
  Sim.spawn sim (fun () ->
      for _ = 1 to 3 do
        got := Mailbox.recv mb :: !got
      done);
  Sim.spawn sim (fun () ->
      Mailbox.send mb 1;
      Mailbox.send mb 2;
      Mailbox.send mb 3);
  let _ = Sim.run sim () in
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3 ] (List.rev !got)

let test_mailbox_send_at () =
  let sim = Sim.create () in
  let mb = Mailbox.create sim in
  let at_recv = ref 0.0 in
  Mailbox.send_at mb ~at:25.0 "x";
  Sim.spawn sim (fun () ->
      let _ = Mailbox.recv mb in
      at_recv := Sim.now sim);
  let _ = Sim.run sim () in
  check_float "delivery time" 25.0 !at_recv

let test_mailbox_try_recv () =
  let sim = Sim.create () in
  let mb = Mailbox.create sim in
  check "empty" true (Mailbox.try_recv mb = None);
  Mailbox.send mb 9;
  check "nonempty" true (Mailbox.try_recv mb = Some 9);
  check_int "drained" 0 (Mailbox.length mb)

let test_mailbox_recv_timeout () =
  let sim = Sim.create () in
  let mb = Mailbox.create sim in
  let got = ref [] in
  Sim.spawn sim (fun () ->
      (* Arrives in time. *)
      got := Mailbox.recv_timeout mb ~timeout_ns:50.0 :: !got;
      (* Nothing arrives: timeout fires, time has advanced. *)
      got := Mailbox.recv_timeout mb ~timeout_ns:30.0 :: !got;
      got := (Some (int_of_float (Sim.now sim)) : int option) :: !got);
  Mailbox.send_at mb ~at:20.0 7;
  let _ = Sim.run sim () in
  Alcotest.(check (list (option int)))
    "value, then timeout at +30"
    [ Some 7; None; Some 50 ]
    (List.rev !got)

(* A timeout that already fired must not clobber the waiter of a later
   receive on the same mailbox: the second recv installs a fresh
   waiter, and only the stale timeout's own waiter may be removed. *)
let test_mailbox_recv_timeout_stale () =
  let sim = Sim.create () in
  let mb = Mailbox.create sim in
  let got = ref [] in
  Sim.spawn sim (fun () ->
      got := Mailbox.recv_timeout mb ~timeout_ns:10.0 :: !got;
      (* Re-arm immediately; the message lands at t=40, well after the
         first timeout's cancel event has been and gone. *)
      got := Mailbox.recv_timeout mb ~timeout_ns:1_000.0 :: !got);
  Mailbox.send_at mb ~at:40.0 3;
  let _ = Sim.run sim () in
  Alcotest.(check (list (option int)))
    "timeout then delivery" [ None; Some 3 ] (List.rev !got)

(* Boundary: the timeout deadline lands on the exact tick the message
   arrives. Events at equal timestamps run FIFO by schedule order, so
   whichever side was scheduled first wins — deterministically. *)
let test_mailbox_recv_timeout_boundary () =
  (* Delivery scheduled before the receiver suspends: at the shared
     tick the delivery runs first and the timeout is inert. *)
  let sim = Sim.create () in
  let mb = Mailbox.create sim in
  let got = ref [] in
  Mailbox.send_at mb ~at:20.0 7;
  Sim.spawn sim (fun () ->
      got := Mailbox.recv_timeout mb ~timeout_ns:20.0 :: !got);
  let _ = Sim.run sim () in
  Alcotest.(check (list (option int))) "delivery wins the tie" [ Some 7 ]
    (List.rev !got);
  (* Timeout scheduled before the delivery (the sender only schedules
     it at t=10, after the receiver suspended at t=0): the cancel runs
     first at the shared tick, and the message survives in the queue
     for a later receive. *)
  let sim = Sim.create () in
  let mb = Mailbox.create sim in
  let got = ref [] in
  Sim.spawn sim (fun () ->
      got := Mailbox.recv_timeout mb ~timeout_ns:20.0 :: !got);
  Sim.spawn sim (fun () ->
      Sim.delay 10.0;
      Mailbox.send_at mb ~at:20.0 8);
  let _ = Sim.run sim () in
  Alcotest.(check (list (option int))) "timeout wins the tie" [ None ]
    (List.rev !got);
  Alcotest.(check (option int)) "message still queued" (Some 8)
    (Mailbox.try_recv mb)

(* ---- Mailbox hand-off: tie order ---- *)

(* Two deliveries at one instant to two parked receivers on charged
   boxes, and a delay expiring at that same instant. The delay's
   wake-up was queued after both deliveries, so each delivery sees
   another event due now and takes the queued wake-up: the delayed
   process runs first, then the receivers in delivery order — the
   order of the engine before the hand-off fast path. *)
let test_handoff_tie_order () =
  let sim = Sim.create () in
  let a = Mailbox.create ~recv_charge_ns:4.0 sim
  and b = Mailbox.create ~recv_charge_ns:4.0 sim in
  let log = ref [] in
  let note what = log := (what, Sim.now sim) :: !log in
  Mailbox.send_at a ~at:30.0 1;
  Mailbox.send_at b ~at:30.0 2;
  Sim.spawn sim (fun () -> note (Printf.sprintf "a%d" (Mailbox.recv a)));
  Sim.spawn sim (fun () -> note (Printf.sprintf "b%d" (Mailbox.recv b)));
  Sim.spawn sim (fun () ->
      Sim.delay 30.0;
      note "delay");
  let processed = Sim.run sim () in
  Alcotest.(check (list (pair string (float 0.0))))
    "delay, then receivers in delivery order"
    [ ("delay", 30.0); ("a1", 34.0); ("b2", 34.0) ]
    (List.rev !log);
  check_int "no shortcut taken" 0 (Sim.elided sim);
  (* 3 starts, 2 deliveries, the delay, 2 queued wake-ups, 2 charges *)
  check_int "processed" 10 processed

(* A delivery to a charged box tied with an event already queued for
   the same instant must not fuse the receive charge: the queued event
   runs first and sees the message not yet received, then the
   receiver's wake-up runs as a queued event of its own and charges
   itself. With nothing else queued by then, that charge is an ordinary
   elided delay. *)
let test_handoff_tie_with_queued () =
  let sim = Sim.create () in
  let mb = Mailbox.create ~recv_charge_ns:5.0 sim in
  let log = ref [] in
  let note what = log := (what, Sim.now sim, Mailbox.received mb) :: !log in
  Sim.spawn sim (fun () -> note (Printf.sprintf "recv %d" (Mailbox.recv mb)));
  Mailbox.send_at mb ~at:20.0 5;
  Sim.schedule sim ~at:20.0 (fun () -> note "callback");
  let processed = Sim.run sim () in
  Alcotest.(check (list (triple string (float 0.0) int)))
    "queued event first, before the receive is counted"
    [ ("callback", 20.0, 0); ("recv 5", 25.0, 1) ]
    (List.rev !log);
  check_int "only the charge elided" 1 (Sim.elided sim);
  check_int "processed (start, delivery, callback, wake-up)" 4 processed

(* The fused receive charge. With or without a later event queued, the
   delivery pays the charge itself and queues the receiver at
   now + charge (one elided wake-up). The receiver observes
   now + charge, the message is counted exactly once, and
   processed + elided is what the engine gave before the shortcut (5
   and 4). *)
let test_handoff_fused_charge () =
  let run ~later =
    let sim = Sim.create () in
    let mb = Mailbox.create ~recv_charge_ns:7.0 sim in
    let seen = ref (-1, nan) in
    Sim.spawn sim (fun () ->
        let v = Mailbox.recv mb in
        seen := (v, Sim.now sim));
    Mailbox.send_at mb ~at:20.0 9;
    if later then Sim.schedule sim ~at:1000.0 ignore;
    let processed = Sim.run sim () in
    (!seen, Mailbox.received mb, processed, Sim.elided sim)
  in
  List.iter
    (fun (later, logical) ->
      let name what = Printf.sprintf "later=%b: %s" later what in
      let (v, at), received, processed, elided = run ~later in
      check_int (name "value") 9 v;
      check_float (name "receiver observes now + charge") 27.0 at;
      check_int (name "received once") 1 received;
      check_int (name "wake-up elided") 1 elided;
      check_int (name "logical events") logical (processed + elided))
    [ (true, 5); (false, 4) ]

(* A seeded many-process message workload: tokens hop between charged
   mailboxes with random compute and flight times, so deliveries meet
   every case — ring, queued wake-up, fused charge.
   The logical event count (processed + elided) is pinned to the value
   the engine gave before the hand-off fast paths. *)
let test_handoff_logical_count () =
  let sim = Sim.create () in
  let n = 8 in
  let boxes = Array.init n (fun _ -> Mailbox.create ~recv_charge_ns:3.0 sim) in
  let prng = Prng.create ~seed:11 in
  let hops = ref 0 in
  for i = 0 to n - 1 do
    Sim.spawn sim (fun () ->
        while true do
          let token = Mailbox.recv boxes.(i) in
          incr hops;
          Sim.delay (float_of_int (Prng.int prng 40));
          if token < 400 then begin
            let dst = Prng.int prng n in
            Mailbox.send_at boxes.(dst)
              ~at:(Sim.now sim +. float_of_int (Prng.int prng 3 * 10))
              (token + 1)
          end
        done)
  done;
  for i = 0 to 3 do
    Mailbox.send_at boxes.(i) ~at:(float_of_int i) 0
  done;
  let processed = Sim.run sim () in
  check_int "hops" 1604 !hops;
  check "some wake-ups elided" true (Sim.elided sim > 0);
  check_int "logical events" 6045 (processed + Sim.elided sim);
  check_float "final time" 14679.0 (Sim.now sim)

let suite =
  [
    ("heap: pop order", `Quick, test_heap_order);
    ("heap: FIFO on ties", `Quick, test_heap_fifo_ties);
    ("heap: peek", `Quick, test_heap_peek);
    QCheck_alcotest.to_alcotest heap_sorted_prop;
    QCheck_alcotest.to_alcotest heap_model_prop;
    ("heap: no retention after pop", `Quick, test_heap_no_retention);
    ("heap: shrink on drain, then regrow", `Quick, test_heap_shrink_regrow);
    ("wheel: FIFO on ties", `Quick, test_wheel_fifo_ties);
    ("wheel: take_below", `Quick, test_wheel_take_below);
    QCheck_alcotest.to_alcotest wheel_heap_differential;
    ("prng: deterministic", `Quick, test_prng_deterministic);
    ("prng: seeds differ", `Quick, test_prng_seeds_differ);
    ("prng: split diverges", `Quick, test_prng_split);
    QCheck_alcotest.to_alcotest prng_int_bounds;
    QCheck_alcotest.to_alcotest prng_float_bounds;
    ("prng: roughly uniform", `Quick, test_prng_uniformity);
    ("prng: split_label deterministic per label", `Quick, test_prng_split_label);
    ( "prng: split_label leaves parent untouched",
      `Quick,
      test_prng_split_label_parent_unperturbed );
    ("prng: split_label child uniform", `Quick, test_prng_split_label_uniform);
    ("sim: delay ordering", `Quick, test_sim_delay_order);
    ("sim: spawn counts", `Quick, test_sim_spawn_counts);
    ("sim: until horizon", `Quick, test_sim_until_horizon);
    ("sim: until clamps after drain", `Quick, test_sim_until_drain_clamp);
    ("sim: nested spawn", `Quick, test_sim_nested_spawn);
    ("sim: suspend/resume", `Quick, test_sim_suspend_resume);
    ("sim: process slots are reused", `Quick, test_sim_slots_reused);
    ("sim: nested run restores the ambient sim", `Quick, test_sim_nested_run);
    ("sim: effects outside process", `Quick, test_sim_outside_process);
    ("sim: deterministic", `Quick, test_sim_determinism);
    ("sim: non-finite times refused", `Quick, test_sim_non_finite_times);
    ("sim: one every tick = hand-rolled loop", `Quick, test_every_matches_loop);
    ("sim: two every ticks stop on drain", `Quick, test_every_two_ticks_drain);
    ("mailbox: FIFO", `Quick, test_mailbox_fifo);
    ("mailbox: send_at", `Quick, test_mailbox_send_at);
    ("mailbox: try_recv", `Quick, test_mailbox_try_recv);
    ("mailbox: recv_timeout", `Quick, test_mailbox_recv_timeout);
    ("mailbox: stale timeout is inert", `Quick, test_mailbox_recv_timeout_stale);
    ( "mailbox: timeout exactly at arrival tick",
      `Quick,
      test_mailbox_recv_timeout_boundary );
    ("mailbox: hand-off keeps equal-time order", `Quick, test_handoff_tie_order);
    ("mailbox: delivery tied with a queued event", `Quick, test_handoff_tie_with_queued);
    ("mailbox: fused receive charge", `Quick, test_handoff_fused_charge);
    ("mailbox: hand-off keeps the logical event count", `Quick, test_handoff_logical_count);
  ]
