(* Host-side measurement from outside the simulator: a monotonic
   clock, coarse spans kept in memory for the traced run, and
   aggregated per-event brackets (count, total seconds) for hooks that
   fire once per trace event, where one span per event would cost more
   than the layer it measures. *)

(* CLOCK_MONOTONIC, in seconds. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type span = { name : string; parent : string; start_s : float; stop_s : float }

type t = { traced : bool; origin : float; mutable spans : span list }

let create ~traced = { traced; origin = now (); spans = [] }

let traced t = t.traced

(* [time t ~parent name f] runs [f] and returns its result with its
   host duration; a traced probe also keeps the span. *)
let time t ~parent name f =
  let t0 = now () in
  let r = f () in
  let t1 = now () in
  if t.traced then
    t.spans <-
      { name; parent; start_s = t0 -. t.origin; stop_s = t1 -. t.origin } :: t.spans;
  (r, t1 -. t0)

let spans t = List.rev t.spans

type bracket = { mutable calls : int; mutable total_s : float }

let bracket () = { calls = 0; total_s = 0.0 }

(* Wrap a two-argument hook (trace sink or tap) so every call is timed
   into [b]. *)
let wrap b f a c =
  let t0 = now () in
  f a c;
  b.total_s <- b.total_s +. (now () -. t0);
  b.calls <- b.calls + 1

let ns_per_call b =
  if b.calls = 0 then 0.0 else b.total_s *. 1e9 /. float_of_int b.calls
