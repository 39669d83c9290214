(* Allocation budget of the lock round trip. A visible read is a
   DS-lock round trip (Algorithm 4); on a large mesh it spans
   thousands of events, so anything it allocates that lives as long
   as the round trip survives the minor GC and is promoted. These
   tests pin the words the round trip allocates, so a closure, a ref
   or a per-request record creeping back into it fails here. *)

open Tm2c_core

let check = Alcotest.(check bool)

(* Minor words allocated by [f]; the two samples' own boxes cancel. *)
let minor_words f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

(* Minor words per call of [f], the fewest of 20 calls after 20
   warm-up calls, over the [units] it handles. *)
let words_per ~units f =
  for _ = 1 to 20 do
    f ()
  done;
  let w = ref infinity in
  for _ = 1 to 20 do
    w := Float.min !w (minor_words f)
  done;
  !w /. float_of_int units

(* One read-lock round trip on an idle machine: one app core reads one
   word inside a transaction, and nothing else runs. The words counted
   are the request message (the [Req] and request records, the
   contention-manager metadata and its float, the [Read_lock] kind),
   the grant's holder and lock-table entry, the reply message, and the
   engine's cost of each suspension (its continuation) on both sides.
   None of it may be a closure: the smallest closure is 4 words, so the
   bound is the count measured at this version plus 3.
   The warm-up grows the response cache, read set and lock table to
   size. The engine's calendar buckets get their arrays on first use
   (27 words), which a round trip now and then still meets long after
   the warm-up, so the test takes the fewest words of 50 round trips. *)
let idle_read_words () =
  let cfg = { Runtime.default_config with total_cores = 4; service_cores = 2 } in
  let t = Runtime.create cfg in
  let a = Tm2c_memory.Alloc.alloc (Runtime.alloc t) ~words:1 in
  Runtime.start_services t;
  let core = (Runtime.app_cores t).(0) in
  let ctx = Runtime.app_ctx t core in
  let words = ref [] in
  Runtime.spawn_app t core (fun () ->
      for _ = 1 to 1000 do
        Tx.atomic ctx (fun () -> ignore (Tx.read ctx a))
      done;
      for _ = 1 to 50 do
        Tx.atomic ctx (fun () ->
            words := minor_words (fun () -> ignore (Tx.read ctx a)) :: !words)
      done);
  ignore (Runtime.run t ());
  !words

(* Measured with OCaml 5.1.1, whose code generation the count depends
   on; 254 before the round trip's closures, refs and response-cache
   record went, 199 before the event set held ints and the sketch and
   memory-latency paths stopped boxing floats, 163 in an [-opaque]
   build (no inlining across modules, a box per float returned). *)
let read_round_trip_words = 105.0

let test_idle_read_no_closure () =
  let w = List.fold_left Float.min infinity (idle_read_words ()) in
  check
    (Printf.sprintf "%.0f words <= %.0f + 3" w read_round_trip_words)
    true
    (w <= read_round_trip_words +. 3.0)

(* Minor words per DTM request over a fixed closed-loop shape: the
   16-core SCC hash table (8 app cores, 8 DTM cores), 2 virtual ms,
   seed 42. The set-up is not counted, and [Gc.minor] first empties
   the minor heap so the drive starts from the same heap state
   whatever ran before it in this process. *)
let words_per_request () =
  let cfg =
    {
      Runtime.default_config with
      total_cores = 16;
      service_cores = 8;
      seed = 42;
    }
  in
  let t = Runtime.create cfg in
  let table = Tm2c_apps.Hashtable.create t ~n_buckets:64 in
  Tm2c_apps.Hashtable.populate table (Tm2c_engine.Prng.create ~seed:42) ~n:256
    ~key_range:512;
  Gc.minor ();
  let words =
    minor_words (fun () ->
        ignore
          (Tm2c_apps.Workload.drive t ~duration_ns:2e6 (fun _core ctx prng () ->
               let key = Tm2c_engine.Prng.int prng 512 in
               if Tm2c_engine.Prng.int prng 10 = 0 then
                 ignore (Tm2c_apps.Hashtable.tx_add ctx table key)
               else ignore (Tm2c_apps.Hashtable.tx_contains ctx table key))))
  in
  let requests = List.fold_left (fun n s -> n + Dtm.served s) 0 (Runtime.servers t) in
  words /. float_of_int requests

(* 152.2 words per request measured with OCaml 5.1.1 (281.0 before
   the round trip lost its closures and records, 247.7 before the
   event set held ints and the sketch and memory-latency paths stopped
   boxing floats, 199.8 in an [-opaque] build), plus a margin of 5%. *)
let request_budget = 160.0

let test_words_per_request () =
  let w = words_per_request () in
  check (Printf.sprintf "%.2f words per request <= %.1f" w request_budget) true
    (w <= request_budget)

(* The engine's own cost per event, on a warm simulation that never
   drains: its processes loop forever, and each measured window is one
   [Sim.run ~until] of 500 virtual ns. The counts include [run]'s own
   entry and exit, shared by the window's events (about 0.2 words per
   event here). An event-set push inlines into {!Tm2c_engine.Sim}, so
   its float time is not boxed. *)
let window_words sim ~events =
  let module Sim = Tm2c_engine.Sim in
  words_per ~units:events (fun () -> ignore (Sim.run sim ~until:(Sim.now sim +. 500.0) ()))

(* Two processes each [delay 1.0] in a loop, so the event set is never
   empty and no delay is elided: 1,000 suspending delays per window.
   Each costs its continuation (2 words) and nothing else. *)
let delay_words () =
  let module Sim = Tm2c_engine.Sim in
  let sim = Sim.create () in
  for _ = 1 to 2 do
    Sim.spawn sim (fun () ->
        while true do
          Sim.delay 1.0
        done)
  done;
  window_words sim ~events:1000

(* 2.21 words measured with OCaml 5.1.1, 4.21 in an [-opaque] build
   and 12.18 with the pooled event cells of an earlier engine. The
   margin is less than one float box (2 words), so a box or option per
   delay fails. *)
let delay_budget = 3.0

let test_delay_words () =
  let w = delay_words () in
  check (Printf.sprintf "%.3f words per suspending delay <= %.1f" w delay_budget) true
    (w <= delay_budget)

(* A charged mailbox with its receiver parked in [recv], and a sender
   that [send_at]s one message 0.5 ns out and then delays 1 ns: 500
   deliveries per window. Each delivery finds no other event due, so
   it takes the hand-off fast path. Per delivery the window holds the
   delivery, the receiver's resume and the sender's delay, and the
   only 2-word units are the two continuations: no push, [now] read
   or [Sim.now sim +. 0.5] boxes its float, and there is no event
   record, option or closure. *)
let delivery_words () =
  let module Sim = Tm2c_engine.Sim in
  let module Mailbox = Tm2c_engine.Mailbox in
  let sim = Sim.create () in
  let mb = Mailbox.create ~recv_charge_ns:0.25 sim in
  Sim.spawn sim (fun () ->
      while true do
        ignore (Mailbox.recv mb)
      done);
  Sim.spawn sim (fun () ->
      while true do
        Mailbox.send_at mb ~at:(Sim.now sim +. 0.5) 0;
        Sim.delay 1.0
      done);
  window_words sim ~events:500

(* 4.41 words measured with OCaml 5.1.1, 16.42 in an [-opaque] build
   (six float boxes) and 30.39 with the pooled event cells of an
   earlier engine; the same margin as the delay's. *)
let delivery_budget = 5.0

let test_delivery_words () =
  let w = delivery_words () in
  check (Printf.sprintf "%.3f words per delivery <= %.1f" w delivery_budget) true
    (w <= delivery_budget)

(* One event per row of the description table, made fresh on each
   call as at an emit site: [fresh j] is row [j mod] the row count. *)
let event_rows =
  Array.of_list
    (List.mapi
       (fun i (k : Event.kind) ->
         let value (name, (ty : Event.ty)) : Event.value =
           match ty with
           | T_int -> Int (1000 + i)
           | T_float -> Float (1234.5 *. float_of_int i)
           | T_bool -> Bool (i mod 2 = 0)
           | T_ints -> Ints [ 4096 + i; 8192 + i ]
           | T_str -> (
               match name with
               | "conflict" -> Str (Types.conflict_to_string Types.Waw)
               | "reason" -> Str (Types.shed_reason_to_string Types.Shed_no_tokens)
               | _ -> Str "write_locks")
         in
         (k.tag, List.map value k.fields))
       Event.kinds)

let fresh j =
  let tag, vs = event_rows.(j mod Array.length event_rows) in
  Result.get_ok (Event.of_fields tag vs)

(* The trace ring keeps no boxed event. Once the ring is full a record
   overwrites flat columns, so the event the sink and tap saw dies
   young and nothing is promoted. The events are made fresh, as at an
   emit site, one per row of the description table in turn; the ring
   is filled twice over first, so its columns, side ring and intern
   table exist. At the default capacity a ring of boxed events
   promotes 4.3 words per event on this mix. *)
let ring_promoted_words () =
  let module Trace = Tm2c_engine.Trace in
  let capacity = 65_536 and n = 200_000 in
  let tr = Trace.create ~capacity ~codec:Event.ring_codec () in
  Trace.enable tr;
  for j = 0 to 2 * capacity do
    Trace.record tr ~now:(float_of_int j) (fresh j)
  done;
  Gc.minor ();
  let p0 = (Gc.quick_stat ()).Gc.promoted_words in
  for j = 1 to n do
    Trace.record tr ~now:(float_of_int j) (fresh j)
  done;
  Gc.minor ();
  ((Gc.quick_stat ()).Gc.promoted_words -. p0) /. float_of_int n

(* 0.0004 words measured with OCaml 5.1.1. *)
let ring_promoted_budget = 0.01

let test_ring_promotes_nothing () =
  let w = ring_promoted_words () in
  check
    (Printf.sprintf "%.4f words promoted per recorded event <= %.2f" w ring_promoted_budget)
    true
    (w <= ring_promoted_budget)

(* One history-log line per row of the description table, written to
   the null device. The events are made before the count; each line
   is built in the writer's buffer, its floats in the writer's scratch
   bytes. *)
let histlog_line_words () =
  let module Histlog = Tm2c_check.Histlog in
  let events = Array.init (Array.length event_rows) fresh in
  let w = Histlog.create_writer Filename.null in
  let words =
    words_per ~units:(Array.length events) (fun () ->
        Array.iteri (fun i ev -> Histlog.put w (3.9e7 +. (0.3 *. float_of_int i)) ev) events)
  in
  Histlog.close_writer w;
  words

(* 19.33 words measured with OCaml 5.1.1; the margin is less than one
   float box (2 words), so a box per line fails. *)
let histlog_line_budget = 21.0

let test_histlog_line_words () =
  let w = histlog_line_words () in
  check (Printf.sprintf "%.3f words per history-log line <= %.1f" w histlog_line_budget) true
    (w <= histlog_line_budget)

(* A Perfetto timeline's numbers printed by {!Tm2c_harness.Json}: 32
   timestamps and 32 durations in µs from virtual ns, with the
   fractional ns that sums of link and service delays leave. The
   document is made before the count, which so holds the printer's
   buffer and the result string, shared by the 64 floats, and what
   printing each float allocates. *)
let json_float_words () =
  let module Json = Tm2c_harness.Json in
  let floats =
    Json.List
      (List.init 64 (fun i ->
           let ns =
             if i mod 2 = 0 then 3.9e7 +. (1234.567 *. float_of_int i)
             else 250.0 +. (41.3 *. float_of_int i)
           in
           Json.Float (ns /. 1000.0)))
  in
  words_per ~units:64 (fun () -> ignore (Json.to_string ~indent:false floats))

(* 3.75 words measured with OCaml 5.1.1 (3.50 at 128 floats, where the
   fixed share is smaller); the margin is less than one float box. *)
let json_float_budget = 5.0

let test_json_float_words () =
  let w = json_float_words () in
  check (Printf.sprintf "%.3f words per JSON float <= %.1f" w json_float_budget) true
    (w <= json_float_budget)

(* [Sim.now] read from outside lib/engine. The build is not opaque
   (../dune-workspace), so the call inlines to a field load and the
   float is never boxed; an [-opaque] build (the dev profile) returns a
   fresh 2-word box per call, which fails here. The sum is checked so
   the reads stay live. *)
let now_words () =
  let module Sim = Tm2c_engine.Sim in
  let sim = Sim.create () in
  Sim.spawn sim (fun () -> Sim.delay 250.0);
  ignore (Sim.run sim ());
  let w0 = Gc.minor_words () in
  let sum = ref 0.0 in
  for _ = 1 to 1000 do
    sum := !sum +. Sim.now sim
  done;
  let words = Gc.minor_words () -. w0 in
  if !sum <> 1000.0 *. Sim.now sim then Alcotest.fail "Sim.now changed while read";
  words

let test_now_words () =
  let w = now_words () in
  check (Printf.sprintf "%.0f words for 1,000 Sim.now reads = 0" w) true (w = 0.0)

(* The liveness monitor on the streaming checker's close path: an
   aborted attempt extends its core's open run in place (a count, an
   int and a float copied into a float-only record), so a run of
   aborts costs no words however long it grows. *)
let closed_attempt ~reads outcome =
  let open Tm2c_check in
  let closed = ref [] in
  let b = History.builder ~retain:false ~on_close:(fun a -> closed := a :: !closed) () in
  History.feed b 1.0 (Event.Tx_start { core = 3; attempt = 1; elastic = false });
  for i = 1 to reads do
    History.feed b (1.0 +. float_of_int i)
      (Event.Tx_read { core = 3; addr = i; granted = true; value = 0 })
  done;
  (match outcome with
  | `Aborted -> History.feed b 1e6 (Event.Tx_aborted { core = 3; attempt = 1; conflict = None })
  | `Unfinished -> ignore (History.finish b));
  List.hd !closed

let liveness_abort_words () =
  let a = closed_attempt ~reads:0 `Aborted in
  let lv = Tm2c_check.Liveness.create ~budget:max_int in
  words_per ~units:1000 (fun () ->
      for _ = 1 to 1000 do
        Tm2c_check.Liveness.close lv a
      done)

let test_liveness_abort_words () =
  let w = liveness_abort_words () in
  check (Printf.sprintf "%.3f words per aborted attempt closed = 0" w) true (w = 0.0)

(* ... and it keeps copies, not the attempts: a closed attempt the
   monitor pointed to would be promoted at the next minor collection
   (the streaming checker drops attempts at close so that they die
   young). Closing 10,000-read attempts leaves the monitor as small as
   closing empty ones. *)
let test_liveness_keeps_no_attempt () =
  let module Liveness = Tm2c_check.Liveness in
  let size ~reads =
    let lv = Liveness.create ~budget:max_int in
    Liveness.close lv (closed_attempt ~reads `Aborted);
    Liveness.close lv (closed_attempt ~reads `Unfinished);
    Obj.reachable_words (Obj.repr lv)
  in
  let small = size ~reads:0 and big = size ~reads:10_000 in
  check (Printf.sprintf "monitor holds %d words after 10,000-read attempts, %d after empty ones" big small)
    true (big = small)

(* The streaming checker's close path: a committing read-only attempt
   resolves each read against its address's retained versions (the
   initial version and a host write) and, with no later writer, awaits
   the RW edge. The words counted per read are the history builder's
   program-order copy of the read list, the resolver's result and the
   await; none may be a copy of the version timeline. *)
let stream_close_words () =
  let open Tm2c_check in
  let reads = 16 in
  let s = Stream.create () in
  let n = ref 0 in
  let feed ev =
    incr n;
    Stream.feed s (float_of_int !n) ev
  in
  for addr = 1 to reads do
    feed (Event.Host_write { addr; value = addr })
  done;
  let best = ref infinity in
  for attempt = 1 to 40 do
    feed (Event.Tx_start { core = 0; attempt; elastic = false });
    for addr = 1 to reads do
      feed (Event.Tx_read { core = 0; addr; granted = true; value = addr })
    done;
    feed (Event.Tx_publish { core = 0; attempt; n_writes = 0 });
    let commit = Event.Tx_committed { core = 0; attempt; duration_ns = 1.0 } in
    let now = float_of_int (!n + 1) in
    incr n;
    let w = minor_words (fun () -> Stream.feed s now commit) in
    if attempt > 20 then best := Float.min !best w
  done;
  !best /. float_of_int reads

(* 40.875 words measured with OCaml 5.1.1 when the stream's resolver
   copied the timeline into an array per read; 22.25 with the shared
   judge walking the retained list (17.875 before it also bounded the
   attempt's serialization instant, a per-attempt cost). The budget is
   the former: the resolver may never cost more than the copy did. *)
let stream_close_budget = 40.875

let test_stream_close_words () =
  let w = stream_close_words () in
  check
    (Printf.sprintf "%.3f words per read the stream checks at close <= %.3f" w
       stream_close_budget)
    true (w <= stream_close_budget)

let suite =
  [
    ("alloc: idle read-lock round trip allocates no closure", `Quick, test_idle_read_no_closure);
    ("alloc: minor words per DTM request", `Quick, test_words_per_request);
    ("alloc: suspending delay", `Quick, test_delay_words);
    ("alloc: port delivery allocates nothing in the engine", `Quick, test_delivery_words);
    ("alloc: a full trace ring promotes no event", `Quick, test_ring_promotes_nothing);
    ("alloc: Sim.now allocates nothing", `Quick, test_now_words);
    ("alloc: words per history-log line", `Quick, test_histlog_line_words);
    ("alloc: words per JSON float printed", `Quick, test_json_float_words);
    ("alloc: liveness monitor closes an abort in place", `Quick, test_liveness_abort_words);
    ("alloc: liveness monitor keeps no closed attempt", `Quick, test_liveness_keeps_no_attempt);
    ("alloc: minor words per read the stream checks at close", `Quick, test_stream_close_words);
  ]
