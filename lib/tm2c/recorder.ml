(* Streaming flight recorder: a periodic snapshot subsystem driven by
   simulated time.

   Every [window_ns] of virtual time it assembles one snapshot block —
   windowed deltas of the always-on counters, windowed and cumulative
   quantiles from the latency sketches, per-phase latency quantiles
   merged across cores, per-DS-partition service gauges, the top-K
   busiest NoC links and top-K abort-blame pairs — emits it through
   [out] in an OpenMetrics-style text format, and then rolls every
   baseline. The one thing retained per window is a six-value row
   (ops, commits, aborts and messages deltas, mean DTM queue depth,
   busiest-link delta; 48 B), the JSON export's time series.

   Producers are untouched: they keep writing the one cumulative
   counter or sketch they always wrote, and the recorder reads deltas
   against private baselines (Sketch windows for distributions,
   previous-value tables for counters). Event counts arrive through
   the trace's second tap ([Trace.set_tap], wired by
   [Runtime.enable_recorder]) so the checker stack keeps exclusive
   ownership of the primary sink. *)

open Tm2c_engine
open Tm2c_noc

type counter = {
  c_name : string;
  c_read : unit -> float;
  mutable c_start : float;  (* value when the recorder started *)
  mutable c_prev : float;  (* value at the last window roll *)
  mutable c_emitted : float;  (* sum of windowed deltas emitted *)
}

type tracked_sketch = {
  s_name : string;
  s_sketch : Sketch.t;
  s_window : Sketch.window;
}

(* Per-DS-server baselines for the windowed service counters. *)
type server_prev = {
  mutable p_served : int;
  mutable p_busy : float;
  mutable p_reclaims : int;
}

type t = {
  env : System.env;
  window_ns : float;
  top_k : int;
  out : (string -> unit) option;
  servers : unit -> Dtm.server list;
  mutable sink_high_water : unit -> int;
  counters : counter list;
  sketches : tracked_sketch list;
  span_windows : Sketch.window array array;  (* [core].(phase), over span_commit *)
  span_scratch : Sketch.t array;  (* per-phase merge target, reused each tick *)
  prev_links : int array;  (* [src * active + dst]: count at the last roll *)
  prev_servers : (int, server_prev) Hashtbl.t;
  prev_blame : (Obs.key, int) Hashtbl.t;
  ev_counts : int array;
  ev_prev : int array;
  buf : Buffer.t;
  row : float array;  (* the window being assembled, [row_width] values *)
  mutable rows : float array;  (* full windows' rows, back to back *)
  mutable n_rows : int;
  mutable t_first : float;  (* end of the first window *)
  mutable n_windows : int;
  mutable started : bool;
  mutable finished : bool;
}

let record_event t ev =
  let i = Event.index ev in
  t.ev_counts.(i) <- t.ev_counts.(i) + 1

type kind = Cumulative | Gauge

(* The per-window row. The four cumulative columns are the windowed
   deltas of the first four [counters]. *)
let columns =
  [|
    ("ops", Cumulative);
    ("commits", Cumulative);
    ("aborts", Cumulative);
    ("messages", Cumulative);
    ("queue_depth_mean", Gauge);
    ("link_msgs_max", Gauge);
  |]

let row_width = Array.length columns

let quantiles = [ (50.0, "0.5"); (90.0, "0.9"); (99.0, "0.99"); (99.9, "0.999") ]

let create ~env ~window_ns ?out ?(top_k = 8) ~servers () =
  if window_ns <= 0.0 then invalid_arg "Recorder.create: window_ns must be positive";
  if top_k < 1 then invalid_arg "Recorder.create: top_k must be >= 1";
  let stats = env.System.stats in
  let net = env.System.net in
  let fc = Fault.counters env.System.faults in
  let fi = float_of_int in
  let mk name read =
    { c_name = name; c_read = read; c_start = 0.0; c_prev = 0.0; c_emitted = 0.0 }
  in
  let counters =
    [
      mk "ops" (fun () -> fi (Stats.total_ops stats));
      mk "commits" (fun () -> fi (Stats.total_commits stats));
      mk "aborts" (fun () -> fi (Stats.total_aborts stats));
      mk "messages_sent" (fun () -> fi (Network.sent net));
      mk "messages_received" (fun () -> fi (Network.received net));
      mk "poll_scans" (fun () -> fi (Network.metrics net).Network.poll_scans);
      mk "trace_events_dropped" (fun () -> fi (Trace.dropped env.System.trace));
      mk "faults_msgs_dropped" (fun () -> fi fc.Fault.dropped);
      mk "faults_msgs_duplicated" (fun () -> fi fc.Fault.duplicated);
      mk "resends" (fun () -> fi fc.Fault.resends);
      mk "leases_reclaimed" (fun () -> fi fc.Fault.leases_reclaimed);
      mk "failovers" (fun () -> fi fc.Fault.failovers);
      mk "stale_rejections" (fun () -> fi fc.Fault.stale_rejections);
      mk "replicated" (fun () -> fi fc.Fault.replicated);
      mk "reqs_offered" (fun () -> fi env.System.overload.System.ol_offered);
      mk "reqs_admitted" (fun () -> fi env.System.overload.System.ol_admitted);
      mk "reqs_shed" (fun () -> fi env.System.overload.System.ol_shed);
      mk "reqs_expired" (fun () -> fi env.System.overload.System.ol_expired);
      mk "reqs_completed" (fun () -> fi env.System.overload.System.ol_completed);
      mk "reqs_goodput" (fun () -> fi env.System.overload.System.ol_goodput);
      mk "client_retries" (fun () -> fi env.System.overload.System.ol_retries);
    ]
  in
  let sketches =
    [
      {
        s_name = "commit_latency_ns";
        s_sketch = env.System.commit_lat;
        s_window = Sketch.window_of env.System.commit_lat;
      };
      {
        s_name = "msg_latency_ns";
        s_sketch = (Network.metrics net).Network.latency;
        s_window = Sketch.window_of (Network.metrics net).Network.latency;
      };
      {
        s_name = "e2e_latency_ns";
        s_sketch = env.System.e2e_lat;
        s_window = Sketch.window_of env.System.e2e_lat;
      };
    ]
  in
  let span = env.System.span_commit in
  let span_windows =
    Array.init (Span.n_cores span) (fun core ->
        Array.init (Span.n_phases span) (fun phase ->
            Sketch.window_of (Span.sketch span ~core ~phase)))
  in
  let span_scratch =
    Array.init (Span.n_phases span) (fun _ ->
        Sketch.create ~rel_error:(Span.rel_error span) ())
  in
  {
    env;
    window_ns;
    top_k;
    out;
    servers;
    sink_high_water = (fun () -> 0);
    counters;
    sketches;
    span_windows;
    span_scratch;
    prev_links = Network.link_counts net;
    prev_servers = Hashtbl.create 16;
    prev_blame = Hashtbl.create 64;
    ev_counts = Array.make (List.length Event.kinds) 0;
    ev_prev = Array.make (List.length Event.kinds) 0;
    buf = Buffer.create 4096;
    row = Array.make row_width 0.0;
    rows = [||];
    n_rows = 0;
    t_first = 0.0;
    n_windows = 0;
    started = false;
    finished = false;
  }

let set_sink_high_water t f = t.sink_high_water <- f

let window_ns t = t.window_ns

let n_windows t = t.n_windows

(* [name{k="v",...} value] with integral values printed exactly. *)
let labels kvs =
  match kvs with
  | [] -> ""
  | _ ->
      "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> Printf.sprintf "%s=%S" k v) kvs)
      ^ "}"

let pr buf name lbls v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.bprintf buf "tm2c_%s%s %.0f\n" name lbls v
  else Printf.bprintf buf "tm2c_%s%s %g\n" name lbls v

let server_prev_for t core =
  match Hashtbl.find_opt t.prev_servers core with
  | Some p -> p
  | None ->
      let p = { p_served = 0; p_busy = 0.0; p_reclaims = 0 } in
      Hashtbl.add t.prev_servers core p;
      p

(* The [k] largest (by [weight]) of [items], heaviest first; ties keep
   list order. *)
let top_by k weight items =
  let sorted = List.sort (fun a b -> compare (weight b) (weight a)) items in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: tl -> x :: take (n - 1) tl
  in
  take k sorted

let append_row t =
  let base = t.n_rows * row_width in
  if base = Array.length t.rows then begin
    let nr = Array.make (max (16 * row_width) (2 * base)) 0.0 in
    Array.blit t.rows 0 nr 0 base;
    t.rows <- nr
  end;
  Array.blit t.row 0 t.rows base row_width;
  t.n_rows <- t.n_rows + 1

(* [full] is false only for the final partial window, which gets no
   row. *)
let emit_window t ~t_ns ~full =
  let b = t.buf in
  Buffer.clear b;
  Printf.bprintf b "# window %d t_ns %.0f\n" t.n_windows t_ns;
  (* Counters: cumulative total since [start], plus this window's
     delta. The emitted deltas telescope: their sum always equals the
     last emitted total, the invariant validate_json re-checks. *)
  List.iteri
    (fun i c ->
      let v = c.c_read () in
      let d = v -. c.c_prev in
      c.c_prev <- v;
      c.c_emitted <- c.c_emitted +. d;
      if i < 4 then t.row.(i) <- d;
      pr b (c.c_name ^ "_total") "" (v -. c.c_start);
      pr b (c.c_name ^ "_window") "" d)
    t.counters;
  pr b "trace_sink_high_water" "" (float_of_int (t.sink_high_water ()));
  (* Latency sketches: cumulative and windowed quantiles. *)
  List.iter
    (fun s ->
      pr b (s.s_name ^ "_count") "" (float_of_int (Sketch.count s.s_sketch));
      pr b
        (s.s_name ^ "_window_count")
        ""
        (float_of_int (Sketch.window_count s.s_sketch s.s_window));
      List.iter
        (fun (p, q) ->
          pr b s.s_name (labels [ ("q", q) ]) (Sketch.percentile s.s_sketch p))
        quantiles;
      if Sketch.window_count s.s_sketch s.s_window > 0 then
        List.iter
          (fun (p, q) ->
            pr b (s.s_name ^ "_window")
              (labels [ ("q", q) ])
              (Sketch.window_percentile s.s_sketch s.s_window p))
          quantiles;
      Sketch.window_roll s.s_sketch s.s_window)
    t.sketches;
  (* Per-phase windowed latency: merge each core's window delta into
     the per-phase scratch sketch, then roll all the windows. *)
  let span = t.env.System.span_commit in
  if Span.enabled span then begin
    let phases = Span.phases span in
    Array.iteri
      (fun phase name ->
        let scratch = t.span_scratch.(phase) in
        Sketch.reset scratch;
        for core = 0 to Span.n_cores span - 1 do
          Sketch.window_merge
            (Span.sketch span ~core ~phase)
            t.span_windows.(core).(phase) ~into:scratch
        done;
        if Sketch.count scratch > 0 then begin
          pr b "phase_ns_window_count"
            (labels [ ("phase", name) ])
            (float_of_int (Sketch.count scratch));
          List.iter
            (fun (p, q) ->
              pr b "phase_ns_window"
                (labels [ ("phase", name); ("q", q) ])
                (Sketch.percentile scratch p))
            quantiles
        end)
      phases;
    for core = 0 to Span.n_cores span - 1 do
      for phase = 0 to Span.n_phases span - 1 do
        Sketch.window_roll (Span.sketch span ~core ~phase)
          t.span_windows.(core).(phase)
      done
    done
  end;
  (* Per-DS-partition service gauges and windowed counters. *)
  let net = t.env.System.net in
  let dtm_cores = t.env.System.dtm_cores in
  let n_dtm = Array.length dtm_cores in
  t.row.(4) <-
    (if n_dtm = 0 then 0.0
     else begin
       let sum = ref 0 in
       Array.iter (fun core -> sum := !sum + Network.pending net ~self:core) dtm_cores;
       float_of_int !sum /. float_of_int n_dtm
     end);
  List.iter
    (fun s ->
      let core = Dtm.core s in
      let lbl = labels [ ("core", string_of_int core) ] in
      let prev = server_prev_for t core in
      let served = Dtm.served s in
      let busy = Dtm.busy_ns s in
      let reclaims = Dtm.lease_reclaims s in
      pr b "dtm_served_window" lbl (float_of_int (served - prev.p_served));
      pr b "dtm_busy_ns_window" lbl (busy -. prev.p_busy);
      if reclaims - prev.p_reclaims > 0 then
        pr b "dtm_lease_reclaims_window" lbl
          (float_of_int (reclaims - prev.p_reclaims));
      pr b "dtm_queue_depth" lbl (float_of_int (Network.pending net ~self:core));
      pr b "dtm_resp_cache" lbl (float_of_int (Dtm.resp_cache_size s));
      prev.p_served <- served;
      prev.p_busy <- busy;
      prev.p_reclaims <- reclaims)
    (t.servers ());
  (* Partition epochs, only once failover is live (they are all 0 and
     meaningless otherwise). *)
  let fo = t.env.System.failover in
  if fo.System.fo_enabled then
    Array.iteri
      (fun part e ->
        pr b "partition_epoch" (labels [ ("part", string_of_int part) ])
          (float_of_int e))
      fo.System.fo_epoch;
  (* Top-K busiest NoC links this window. *)
  let n = Network.active net in
  let top =
    Network.top_pairs ~limit:t.top_k n (fun src dst ->
        let c = Network.link_count net ~src ~dst in
        let i = (src * n) + dst in
        let d = c - t.prev_links.(i) in
        t.prev_links.(i) <- c;
        d)
  in
  List.iter
    (fun (src, dst, d) ->
      pr b "link_msgs_window"
        (labels [ ("src", string_of_int src); ("dst", string_of_int dst) ])
        (float_of_int d))
    top;
  t.row.(5) <- (match top with (_, _, d) :: _ -> float_of_int d | [] -> 0.0);
  (* Top-K abort-blame pairs this window (windowed deltas of the
     always-on Obs causality table). *)
  let blame = ref [] in
  List.iter
    (fun ((key : Obs.key), count, _addr) ->
      let prev = match Hashtbl.find_opt t.prev_blame key with Some p -> p | None -> 0 in
      Hashtbl.replace t.prev_blame key count;
      if count - prev > 0 then blame := (key, count - prev) :: !blame)
    (Obs.dump t.env.System.obs);
  List.iter
    (fun ((key : Obs.key), d) ->
      pr b "abort_blame_window"
        (labels
           [
             ("winner", string_of_int key.Obs.winner);
             ("victim", string_of_int key.Obs.victim);
             ("conflict", Types.conflict_to_string key.Obs.conflict);
           ])
        (float_of_int d))
    (top_by t.top_k (fun (_, d) -> d) !blame);
  (* Windowed trace-event counts (0 while tracing is off: the tap only
     sees recorded events). *)
  List.iteri
    (fun i (k : Event.kind) ->
      let d = t.ev_counts.(i) - t.ev_prev.(i) in
      t.ev_prev.(i) <- t.ev_counts.(i);
      if d > 0 then
        pr b "trace_events_window" (labels [ ("type", k.name) ]) (float_of_int d))
    Event.kinds;
  (match t.out with
  | Some out -> out (Buffer.contents b)
  | None -> ());
  Buffer.clear b;
  if full then append_row t;
  t.n_windows <- t.n_windows + 1

let start t =
  if t.started then invalid_arg "Recorder.start: already started";
  t.started <- true;
  (* Baseline every counter at the start instant, so totals are "since
     the recorder started" (== run totals when started before run). *)
  List.iter
    (fun c ->
      let v = c.c_read () in
      c.c_start <- v;
      c.c_prev <- v)
    t.counters;
  let sim = t.env.System.sim in
  (* [Sim.every]'s first tick, and the start of the arithmetic
     [series_times] repeats. *)
  t.t_first <- Sim.now sim +. t.window_ns;
  Sim.every sim ~period:t.window_ns (fun at ->
      if not t.finished then emit_window t ~t_ns:at ~full:true;
      not t.finished)

let finish t =
  if t.started && not t.finished then begin
    emit_window t ~t_ns:(Sim.now t.env.System.sim) ~full:false;
    t.finished <- true;
    match t.out with Some out -> out "# eof\n" | None -> ()
  end

let series_length t = t.n_rows

(* Window-end times, by the same repeated addition as the ticks. *)
let series_times t =
  let times = Array.make t.n_rows t.t_first in
  for i = 1 to t.n_rows - 1 do
    times.(i) <- times.(i - 1) +. t.window_ns
  done;
  times

let series t =
  Array.to_list
    (Array.mapi
       (fun col (name, kind) ->
         (name, kind, Array.init t.n_rows (fun r -> t.rows.((r * row_width) + col))))
       columns)

let counter_totals t =
  List.map (fun c -> (c.c_name, c.c_read () -. c.c_start, c.c_emitted)) t.counters

let sketch_totals t = List.map (fun s -> (s.s_name, s.s_sketch)) t.sketches

let phase_sketches t =
  let span = t.env.System.span_commit in
  Array.to_list
    (Array.mapi
       (fun phase name -> (name, Span.merged_sketch span ~phase))
       (Span.phases span))

let event_totals t =
  List.mapi (fun i (k : Event.kind) -> (k.name, t.ev_counts.(i))) Event.kinds
