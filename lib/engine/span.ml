(* Per-core phase-time accumulator: attributes every nanosecond of an
   activity (here: a transaction attempt) to one of a fixed set of
   phases, keeping a per-core quantile sketch and running sum per
   phase.

   Disabled by default and guarded like Trace: call sites check
   [Span.enabled] before doing any timestamp arithmetic, so a disabled
   span costs one mutable-field read and zero allocation.

   The intended protocol is scratch-then-flush: the instrumented code
   accumulates one attempt's phase durations into a caller-owned float
   array (no allocation per attempt) and calls [flush] exactly once
   when the attempt's outcome is known. Flushing into separate [t]s
   for committed and aborted attempts keeps the committed aggregate's
   invariant exact: per core, the sum over phases equals the summed
   attempt durations (up to float rounding). *)

type t = {
  phases : string array;
  mutable enabled : bool;
  rel_error : float;
  sketches : Sketch.t array array;  (* [core].(phase) *)
  sums : float array array;  (* [core].(phase) total ns *)
  attempts : int array;  (* flushed attempts per core *)
  attempt_ns : float array;  (* summed attempt durations per core *)
}

(* Coarser default resolution than a standalone sketch: spans keep
   n_cores * n_phases sketches, and sketch counts arrays are only
   materialized per (core, phase) on first use, so the default keeps a
   fully active 48-core run in the hundreds of KB. *)
let default_rel_error = 0.02

let create ?(rel_error = default_rel_error) ~n_cores ~phases () =
  if n_cores <= 0 then invalid_arg "Span.create: need at least one core";
  if Array.length phases = 0 then invalid_arg "Span.create: need at least one phase";
  {
    phases = Array.copy phases;
    enabled = false;
    rel_error;
    sketches =
      Array.init n_cores (fun _ ->
          Array.init (Array.length phases) (fun _ -> Sketch.create ~rel_error ()));
    sums = Array.init n_cores (fun _ -> Array.make (Array.length phases) 0.0);
    attempts = Array.make n_cores 0;
    attempt_ns = Array.make n_cores 0.0;
  }

let enabled t = t.enabled

let enable t = t.enabled <- true

let phases t = t.phases

let n_phases t = Array.length t.phases

let n_cores t = Array.length t.sums

let rel_error t = t.rel_error

(* One-off sample outside the scratch protocol (e.g. a backoff delay
   that happens between attempts). *)
let add t ~core ~phase dur =
  let dur = if dur < 0.0 then 0.0 else dur in
  Sketch.add t.sketches.(core).(phase) dur;
  t.sums.(core).(phase) <- t.sums.(core).(phase) +. dur

(* Fold one attempt's scratch durations into the per-core aggregate
   and clear the scratch. Zero phases are skipped in the sketches
   (an attempt that never waited is not a 0 ns wait sample) but the
   sums stay exact either way. *)
let flush t ~core scratch ~total =
  if Array.length scratch <> Array.length t.phases then
    invalid_arg "Span.flush: scratch length mismatch";
  for p = 0 to Array.length scratch - 1 do
    let d = scratch.(p) in
    if d > 0.0 then begin
      Sketch.add t.sketches.(core).(p) d;
      t.sums.(core).(p) <- t.sums.(core).(p) +. d
    end;
    scratch.(p) <- 0.0
  done;
  t.attempts.(core) <- t.attempts.(core) + 1;
  t.attempt_ns.(core) <- t.attempt_ns.(core) +. (if total < 0.0 then 0.0 else total)

let sketch t ~core ~phase = t.sketches.(core).(phase)

(* All cores' sketches for one phase folded into a fresh sketch —
   [Sketch.merge] is associative and order-independent, so this equals
   the sketch a single global stream would have produced. *)
let merged_sketch t ~phase =
  let into = Sketch.create ~rel_error:t.rel_error () in
  Array.iter (fun row -> Sketch.merge ~into row.(phase)) t.sketches;
  into

let sum t ~core ~phase = t.sums.(core).(phase)

let attempts t ~core = t.attempts.(core)

let attempt_ns t ~core = t.attempt_ns.(core)

(* Sum over phases for one core — equals [attempt_ns] (within float
   rounding) when every flushed duration was charged to some phase. *)
let phase_total t ~core = Array.fold_left ( +. ) 0.0 t.sums.(core)

