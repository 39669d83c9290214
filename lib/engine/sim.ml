open Effect
open Effect.Deep

exception Stopped

(* Queued events are pooled, mutable cells rather than per-event
   closures: kind 0 carries an ordinary callback, kind 1 an
   (int port, int slot) pair dispatched through the port registry —
   the int-packed fast path used by Mailbox's timed deliveries — and
   kind 2 a parked continuation (a delay, or a process woken from a
   spot), resumed directly by the run loop with no wrapper closure.
   Cells are recycled through a free stack the moment they are
   popped. *)
type cell = {
  mutable kind : int; (* 0 = closure, 1 = port delivery, 2 = continuation *)
  mutable fn : unit -> unit;
  mutable port : int;
  mutable slot : int;
  mutable k : (unit, unit) continuation option;
}

type t = {
  mutable now : float;
  mutable horizon : float; (* the running [run]'s [until], else infinity *)
  scratch : float array; (* unboxed priority return cell for take_below *)
  events : cell Wheel.t;
  mutable pool : cell array; (* free stack of recycled cells *)
  mutable pool_top : int;
  mutable ports : (int -> unit) array;
  mutable n_ports : int;
  mutable self_opt : t option; (* preallocated [Some t] for [current_key] *)
  mutable pending_delay : float; (* absolute wake-up of the delay in flight *)
  mutable delay_eff : unit Effect.t; (* preallocated [Delay t] *)
  mutable delay_handler : ((unit, unit) continuation -> unit) option;
  mutable n_spawned : int;
  mutable n_finished : int;
  mutable n_elided : int;
  mutable n_ticks : int; (* queued events that are {!every} ticks *)
  mutable running : bool;
  (* Host-side self-profiler. The clock is *injected* (the engine
     itself never reads wall time — virtual determinism is the
     contract the lint enforces); when set, [run] switches to an
     instrumented loop that stamps the clock around the event-set pop
     and around each dispatch, attributing host seconds to one of
     [prof_categories]. *)
  mutable host_clock : (unit -> float) option;
  prof_s : float array;  (* host seconds per category *)
  prof_n : int array;  (* samples per category *)
  mutable prof_tag : int;  (* dispatch override set via [prof_mark]; -1 = none *)
}

(* 0 = wheel (event-set pop + queue bookkeeping); 1 = delay resume
   (continuing a parked fiber — includes the fiber's own execution up
   to its next suspension); 2 = mailbox delivery (port dispatch);
   3 = callback (scheduled closures, also covering fiber starts);
   4/5 = subsystem refinements claimed via [prof_mark]: a dispatch
   that entered the DTM request handler or the message-send path is
   attributed there instead of its scheduling category. *)
let prof_categories =
  [| "wheel"; "delay_resume"; "mailbox_delivery"; "callback"; "dtm"; "network" |]

let prof_cat_dtm = 4

let prof_cat_network = 5

(* A parking spot holds at most one blocked process as its bare
   continuation. Like [Delay], its effect value and handler are
   allocated once, with the spot, so parking allocates only the
   [Some k] it stores. Whatever the process waits for (a message, a
   queue entry) travels beside the spot, in its owner's state. *)
type spot = {
  owner : t;
  mutable parked : (unit, unit) continuation option;
  park_eff : unit Effect.t; (* preallocated [Park spot] *)
  park_handler : ((unit, unit) continuation -> unit) option;
}

(* The effect payload carries the owning simulation (or spot) so that
   nested or sequential simulations (common in tests) cannot
   interfere. The wake-up time rides in [pending_delay] rather than
   the payload, so the effect value itself is one preallocated
   [Delay t] per simulation and the dominant effect on the hot path
   allocates nothing. *)
type _ Effect.t += Delay : t -> unit Effect.t
type _ Effect.t += Park : spot -> unit Effect.t

(* Placeholder for [delay_eff] before [create] ties the knot. *)
type _ Effect.t += Uninit : unit Effect.t

let nop () = ()

let unbound_port (_ : int) = invalid_arg "Sim: delivery to unbound port"

let now t = t.now

let alloc_cell t =
  if t.pool_top > 0 then begin
    t.pool_top <- t.pool_top - 1;
    t.pool.(t.pool_top)
  end
  else { kind = 0; fn = nop; port = -1; slot = -1; k = None }

let release_cell t c =
  (* Don't retain the callback or continuation. *)
  c.fn <- nop;
  c.k <- None;
  if t.pool_top = Array.length t.pool then begin
    let np = Array.make (max 64 (2 * t.pool_top)) c in
    Array.blit t.pool 0 np 0 t.pool_top;
    t.pool <- np
  end;
  t.pool.(t.pool_top) <- c;
  t.pool_top <- t.pool_top + 1

(* A NaN time would pop out of order and an infinite one reads as a
   drained queue, so both are refused where they enter the queue. The
   finite, not-past path pays one comparison ([<= max_float] is false
   for NaN and +inf); -inf is caught on the clamping branch. *)
let[@inline never] non_finite call x =
  invalid_arg (Printf.sprintf "%s: non-finite time %g" call x)

let[@inline] checked_at t call at =
  if at < t.now then if at > neg_infinity then t.now else non_finite call at
  else if at <= max_float then at
  else non_finite call at

let schedule t ~at f =
  let at = checked_at t "Sim.schedule" at in
  let c = alloc_cell t in
  c.kind <- 0;
  c.fn <- f;
  Wheel.push t.events at c

let register_port t handler =
  let id = t.n_ports in
  if id = Array.length t.ports then begin
    let np = Array.make (max 16 (2 * id)) unbound_port in
    Array.blit t.ports 0 np 0 id;
    t.ports <- np
  end;
  t.ports.(id) <- handler;
  t.n_ports <- id + 1;
  id

let schedule_port t ~at ~port ~slot =
  let at = checked_at t "Sim.schedule_port" at in
  let c = alloc_cell t in
  c.kind <- 1;
  c.port <- port;
  c.slot <- slot;
  Wheel.push t.events at c

(* Queue a continuation directly in a pooled cell (kind 2): no
   wrapper closure per suspension. Takes the option itself, so a
   continuation moving from a spot to the queue reuses its box. *)
let push_k t ~at k =
  let at = if at < t.now then t.now else at in
  let c = alloc_cell t in
  c.kind <- 2;
  c.k <- k;
  Wheel.push t.events at c

let create () =
  let t =
    {
      now = 0.0;
      horizon = infinity;
      scratch = Array.make 1 0.0;
      events = Wheel.create ();
      pool = [||];
      pool_top = 0;
      ports = [||];
      n_ports = 0;
      self_opt = None;
      pending_delay = 0.0;
      delay_eff = Uninit;
      delay_handler = None;
      n_spawned = 0;
      n_finished = 0;
      n_elided = 0;
      n_ticks = 0;
      running = false;
      host_clock = None;
      prof_s = Array.make (Array.length prof_categories) 0.0;
      prof_n = Array.make (Array.length prof_categories) 0;
      prof_tag = -1;
    }
  in
  t.self_opt <- Some t;
  t.delay_eff <- Delay t;
  t.delay_handler <- Some (fun k -> push_k t ~at:t.pending_delay (Some k));
  t

(* Ambient simulation for the currently executing process, so that
   [delay] needs no explicit handle at every call site.
   Domain-local (not a plain ref): each domain gets its own slot, so
   parallel sweep cells running one simulation per domain cannot
   observe each other's ambient sim. *)
let current_key : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let delay d =
  match Domain.DLS.get current_key with
  | Some t ->
      (* A negative delay clamps to zero, like a past [schedule]. *)
      let target = checked_at t "Sim.delay" (t.now +. d) in
      (* Elision fast path: when the wake-up could not interleave with
         any queued event — the queue is empty — and the wake-up lies
         within the current run's horizon, advance the clock in place
         instead of a push/pop/continuation round-trip. Every
         observable time is identical either way, and [run]'s processed
         count plus [elided] is invariant. (A non-empty queue whose
         minimum still lies strictly past [target] could also elide,
         but probing the minimum on every delay forces a cached-min
         refresh and costs more than the rare extra elision saves.) *)
      if target <= t.horizon && Wheel.is_empty t.events then begin
        t.now <- target;
        t.n_elided <- t.n_elided + 1
      end
      else begin
        t.pending_delay <- target;
        perform t.delay_eff
      end
  | None -> invalid_arg "Sim.delay: not inside a simulation process"

let current () =
  match Domain.DLS.get current_key with
  | Some t -> t
  | None -> invalid_arg "Sim.current: not inside a simulation process"

let spot t =
  let rec s =
    {
      owner = t;
      parked = None;
      park_eff = Park s;
      park_handler = Some (fun k -> s.parked <- Some k);
    }
  in
  s

let is_parked s = s.parked != None

let park s =
  if s.parked != None then invalid_arg "Sim.park: spot already holds a process";
  match Domain.DLS.get current_key with
  | Some t when t == s.owner -> perform s.park_eff
  | Some _ -> invalid_arg "Sim.park: spot belongs to another simulation"
  | None -> invalid_arg "Sim.park: not inside a simulation process"

(* The woken process takes the push-sequence slot its wake-up takes
   here, at the current instant: equal-time events keep their order. *)
let wake s =
  match s.parked with
  | Some _ as k ->
      s.parked <- None;
      push_k s.owner ~at:s.owner.now k
  | None -> ()

(* [Wheel.min_gt events now]: an event pushed at the current instant
   would be the very next to pop. *)
let none_due_now t = Wheel.min_gt t.events t.now

(* The tail fast path. It replaces a [wake] whose event would have been
   the very next pop ([none_due_now]), issued as the last action of a
   port handler, for a process whose first action after waking is
   [delay d] — which the caller then skips. The process is queued
   straight at [now + d], at the sequence slot that delay would take,
   and the saved wake-up counts as elided so that processed + elided is
   unchanged. With the event set empty, that delay would itself have
   been elided instead of pushed; the count of logical events is the
   same either way. *)
let hand_off_after s d =
  match s.parked with
  | Some _ as k ->
      let t = s.owner in
      s.parked <- None;
      t.n_elided <- t.n_elided + 1;
      push_k t ~at:(t.now +. d) k
  | None -> ()

let exec t body =
  match_with
    (fun () ->
      Domain.DLS.set current_key t.self_opt;
      body ())
    ()
    {
      retc = (fun () -> t.n_finished <- t.n_finished + 1);
      exnc =
        (fun exn ->
          match exn with
          | Stopped -> t.n_finished <- t.n_finished + 1
          | _ ->
              (* Surface where inside the process the failure happened:
                 the re-raise below loses the fiber's backtrace. *)
              let bt = Printexc.get_backtrace () in
              if bt <> "" then prerr_string bt;
              raise exn);
      effc =
        (fun (type b) (eff : b Effect.t) ->
          match eff with
          | Delay st when st == t ->
              (* Preallocated: parks the continuation at
                 [t.pending_delay], the absolute wake-up the performer
                 just stored. The annotation applies this branch's
                 [b = unit] equation locally instead of letting it
                 unify [b] away for the other branches. *)
              (t.delay_handler : ((b, unit) continuation -> unit) option)
          | Park s when s.owner == t ->
              (s.park_handler : ((b, unit) continuation -> unit) option)
          | _ -> None);
    }

let spawn t ?name f =
  ignore name;
  t.n_spawned <- t.n_spawned + 1;
  schedule t ~at:t.now (fun () -> exec t f)

(* The uninstrumented hot loop. *)
let run_plain t until processed =
  let continue_run = ref true in
  while !continue_run do
    match Wheel.take_below t.events t.horizon t.scratch with
    | Some c -> (
        t.now <- t.scratch.(0);
        incr processed;
        (* Branches ordered by frequency: continuations dominate, then
           timed deliveries, then general callbacks. *)
        if c.kind = 2 then begin
          match c.k with
          | Some k ->
              release_cell t c;
              Domain.DLS.set current_key t.self_opt;
              continue k ()
          | None -> assert false
        end
        else if c.kind = 1 then begin
          let port = c.port and slot = c.slot in
          release_cell t c;
          t.ports.(port) slot
        end
        else begin
          let fn = c.fn in
          release_cell t c;
          fn ()
        end)
    | None ->
        if t.scratch.(0) = infinity then begin
          (* The queue drained before the horizon: the caller asked for
             the window up to [until], so the clock must still land
             there. *)
          match until with
          | Some h when t.now < h -> t.now <- h
          | Some _ | None -> ()
        end
        else
          (* A queued event lies past the horizon: clamp the clock but
             leave the event queued, so a later [run] call resumes
             exactly where this one stopped. *)
          t.now <- t.horizon;
        continue_run := false
  done

(* Same loop with the injected clock stamped around the pop and the
   dispatch. Note the dispatch category measures everything until
   control returns to the scheduler: a resumed fiber's host time (its
   transactional work, DTM handling, network sends) lands in
   [delay_resume] or [callback] unless the fiber claims the dispatch
   for [dtm]/[network] through [prof_mark]. Two clock reads per
   event. *)
let run_profiled t clk until processed =
  let continue_run = ref true in
  while !continue_run do
    let t0 = clk () in
    match Wheel.take_below t.events t.horizon t.scratch with
    | Some c ->
        t.now <- t.scratch.(0);
        incr processed;
        let t1 = clk () in
        t.prof_s.(0) <- t.prof_s.(0) +. (t1 -. t0);
        t.prof_n.(0) <- t.prof_n.(0) + 1;
        let base = if c.kind = 2 then 1 else if c.kind = 1 then 2 else 3 in
        t.prof_tag <- -1;
        (if c.kind = 2 then begin
           match c.k with
           | Some k ->
               release_cell t c;
               Domain.DLS.set current_key t.self_opt;
               continue k ()
           | None -> assert false
         end
         else if c.kind = 1 then begin
           let port = c.port and slot = c.slot in
           release_cell t c;
           t.ports.(port) slot
         end
         else begin
           let fn = c.fn in
           release_cell t c;
           fn ()
         end);
        let cat = if t.prof_tag >= 0 then t.prof_tag else base in
        t.prof_s.(cat) <- t.prof_s.(cat) +. (clk () -. t1);
        t.prof_n.(cat) <- t.prof_n.(cat) + 1
    | None ->
        t.prof_s.(0) <- t.prof_s.(0) +. (clk () -. t0);
        (if t.scratch.(0) = infinity then begin
           match until with
           | Some h when t.now < h -> t.now <- h
           | Some _ | None -> ()
         end
         else t.now <- t.horizon);
        continue_run := false
  done

let run t ?until () =
  t.running <- true;
  t.horizon <- (match until with Some h -> h | None -> infinity);
  let processed = ref 0 in
  (match t.host_clock with
  | None -> run_plain t until processed
  | Some clk -> run_profiled t clk until processed);
  t.horizon <- infinity;
  t.running <- false;
  Domain.DLS.set current_key None;
  !processed

(* [Some clock] switches {!run} to the instrumented loop; [None]
   restores the uninstrumented one (accumulated figures are kept). *)
let set_host_clock t clock = t.host_clock <- clock

(* Claim the current dispatch for category [cat]. First mark wins, so
   a message send issued from inside DTM handling stays "dtm". A
   bracket-based measurement cannot work here: a virtual delay inside
   the measured region parks the fiber and the bracket would span
   every dispatch interleaved before the resume. Attribution at
   dispatch granularity is sound (the categories partition the run's
   host time exactly). No-op without an injected clock. *)
let prof_mark t cat =
  if t.host_clock != None && t.prof_tag < 0 then t.prof_tag <- cat

let host_profile t =
  Array.init (Array.length prof_categories) (fun i ->
      (prof_categories.(i), t.prof_s.(i), t.prof_n.(i)))

let spawned t = t.n_spawned

let finished t = t.n_finished

let elided t = t.n_elided

(* The one recurring-callback mechanism. Each tick takes the push
   slot of an ordinary [schedule] issued after [f] returns, so one tick
   alone fires exactly where a hand-rolled rescheduling loop would. It
   stops rescheduling once only ticks remain queued (inside a callback
   the executing event is already popped): a drained simulation ends
   however many ticks are installed. *)
let every t ~period f =
  if not (period > 0.0) then invalid_arg "Sim.every: period must be positive";
  let rec tick at () =
    t.n_ticks <- t.n_ticks - 1;
    if f at && Wheel.length t.events > t.n_ticks then arm (at +. period)
  and arm at =
    t.n_ticks <- t.n_ticks + 1;
    schedule t ~at (tick at)
  in
  arm (t.now +. period)
