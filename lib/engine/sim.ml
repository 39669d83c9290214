open Effect
open Effect.Deep

exception Stopped

(* Every queued event is one int, so the event set stores no pointer.
   The low two bits give the kind, the rest its operand:
   - kind 0, a callback: the index of the closure in [cbs];
   - kind 1, a port delivery: an (int port, int slot) pair dispatched
     through the port registry — the packed fast path of Mailbox's
     timed deliveries;
   - kind 2, a continuation: the id (pid) of a suspended process.
     Each process owns one slot of [procs] from its start to its end,
     and each suspension stores its continuation there — the one
     pointer store the engine makes per suspension — so a woken or
     delayed process is queued as its pid alone and resumed by the run
     loop with no wrapper closure. *)
let kind_bits = 2

let port_bits = 20

(* All floats, so the record is stored flat: setting a field neither
   boxes the float nor pays the write barrier. *)
type clock = {
  mutable now : float;
  mutable horizon : float; (* the running [run]'s [until], else infinity *)
  mutable pending_delay : float; (* absolute wake-up of the delay in flight *)
}

(* A table indexed by small ints, its free indices on a stack. It
   grows by doubling, [fill] filling the new slots. *)
type 'a table = {
  mutable slots : 'a array;
  mutable free : int array; (* room for every index *)
  mutable top : int;
  fill : 'a;
}

type t = {
  clock : clock;
  scratch : float array; (* unboxed priority return cell for take_below *)
  events : Wheel.t;
  procs : (unit, unit) continuation table; (* by pid *)
  mutable cur_pid : int; (* the process running or last resumed *)
  cbs : (unit -> unit) table; (* queued callbacks *)
  ports : (int -> unit) table; (* never freed: ids are dense *)
  mutable self_opt : t option; (* preallocated [Some t] for [current_key] *)
  mutable delay_eff : unit Effect.t; (* preallocated [Delay t] *)
  mutable park_eff : unit Effect.t; (* preallocated [Park t] *)
  mutable delay_handler : ((unit, unit) continuation -> unit) option;
  mutable park_handler : ((unit, unit) continuation -> unit) option;
  mutable n_spawned : int;
  mutable n_finished : int;
  mutable n_elided : int;
  mutable n_ticks : int; (* queued events that are {!every} ticks *)
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

(* A parking spot holds at most one blocked process, as its pid (-1
   when empty); the continuation itself waits in the process's slot.
   Whatever the process waits for (a message, a queue entry) travels
   beside the spot, in its owner's state. *)
type spot = { owner : t; mutable parked : int }

(* The effect payload carries the owning simulation so that nested or
   sequential simulations (common in tests) cannot interfere. The
   wake-up time rides in [pending_delay] rather than the payload, so
   each effect value is preallocated once per simulation, and neither
   suspension allocates anything but its continuation. *)
type _ Effect.t += Delay : t -> unit Effect.t
type _ Effect.t += Park : t -> unit Effect.t

(* Placeholder for [delay_eff] and [park_eff] before [create] ties the
   knot. *)
type _ Effect.t += Uninit : unit Effect.t

(* Filler of the continuation table's free slots: a real continuation,
   captured once and never resumed, so the table needs no unsafe
   dummy. Resuming it by mistake would merely return. The handler
   hands it out of [match_with] in an exception. *)
type _ Effect.t += Capture : unit Effect.t

exception Captured of (unit, unit) continuation

let dead_k : (unit, unit) continuation =
  let effc (type b) (eff : b Effect.t) : ((b, unit) continuation -> unit) option =
    match eff with Capture -> Some (fun k -> raise (Captured k)) | _ -> None
  in
  match match_with perform Capture { retc = Fun.id; exnc = raise; effc } with
  | () -> assert false
  | exception Captured k -> k

let nop () = ()

let unbound_port (_ : int) = invalid_arg "Sim: delivery to unbound port"

let now t = t.clock.now

let table fill = { slots = [||]; free = [||]; top = 0; fill }

(* A free index: the last released, else the lowest new one. *)
let take tb =
  if tb.top = 0 then begin
    let cap = Array.length tb.slots in
    let ncap = max 16 (2 * cap) in
    let slots = Array.make ncap tb.fill in
    Array.blit tb.slots 0 slots 0 cap;
    tb.slots <- slots;
    tb.free <- Array.init ncap (fun i -> ncap - 1 - i);
    tb.top <- ncap - cap
  end;
  tb.top <- tb.top - 1;
  tb.free.(tb.top)

let release tb i =
  tb.free.(tb.top) <- i;
  tb.top <- tb.top + 1

(* A NaN time would pop out of order and an infinite one reads as a
   drained queue, so both are refused where they enter the queue. The
   finite, not-past path pays one comparison ([<= max_float] is false
   for NaN and +inf); -inf is caught on the clamping branch. *)
let[@inline never] non_finite call x =
  invalid_arg (Printf.sprintf "%s: non-finite time %g" call x)

let[@inline] checked_at t call at =
  let now = t.clock.now in
  if at < now then if at > neg_infinity then now else non_finite call at
  else if at <= max_float then at
  else non_finite call at

let schedule t ~at f =
  let at = checked_at t "Sim.schedule" at in
  let i = take t.cbs in
  t.cbs.slots.(i) <- f;
  Wheel.push t.events at (i lsl kind_bits)

let register_port t handler =
  let id = take t.ports in
  if id lsr port_bits <> 0 then invalid_arg "Sim.register_port: port ids exhausted";
  t.ports.slots.(id) <- handler;
  id

let schedule_port t ~at ~port ~slot =
  let at = checked_at t "Sim.schedule_port" at in
  Wheel.push t.events at ((((slot lsl port_bits) lor port) lsl kind_bits) lor 1)

(* Queue process [pid] to resume at [at]. *)
let[@inline] push_k t ~at pid =
  let now = t.clock.now in
  Wheel.push t.events (if at < now then now else at) ((pid lsl kind_bits) lor 2)

let create () =
  let t =
    {
      clock = { now = 0.0; horizon = infinity; pending_delay = 0.0 };
      scratch = Array.make 1 0.0;
      events = Wheel.create ();
      procs = table dead_k;
      cur_pid = -1;
      cbs = table nop;
      ports = table unbound_port;
      self_opt = None;
      delay_eff = Uninit;
      park_eff = Uninit;
      delay_handler = None;
      park_handler = None;
      n_spawned = 0;
      n_finished = 0;
      n_elided = 0;
      n_ticks = 0;
      host_clock = None;
      prof_s = Array.make (Array.length prof_categories) 0.0;
      prof_n = Array.make (Array.length prof_categories) 0;
      prof_tag = -1;
    }
  in
  t.self_opt <- Some t;
  t.delay_eff <- Delay t;
  t.park_eff <- Park t;
  t.delay_handler <-
    Some
      (fun k ->
        t.procs.slots.(t.cur_pid) <- k;
        push_k t ~at:t.clock.pending_delay t.cur_pid);
  t.park_handler <- Some (fun k -> t.procs.slots.(t.cur_pid) <- k);
  t

let process_slots t = Array.length t.procs.slots

(* Ambient simulation for the currently executing process, so that
   [delay] needs no explicit handle at every call site. [run] sets it
   for its whole length. Domain-local (not a plain ref): each domain
   gets its own slot, so parallel sweep cells running one simulation
   per domain cannot observe each other's ambient sim. *)
let current_key : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let delay d =
  match Domain.DLS.get current_key with
  | Some t ->
      let c = t.clock in
      (* A negative delay clamps to zero, like a past [schedule]. *)
      let target = checked_at t "Sim.delay" (c.now +. d) in
      (* Elision fast path: when the wake-up could not interleave with
         any queued event — the queue is empty — and the wake-up lies
         within the current run's horizon, advance the clock in place
         instead of a push/pop/continuation round-trip. Every
         observable time is identical either way, and [run]'s processed
         count plus [elided] is invariant. (A non-empty queue whose
         minimum still lies strictly past [target] could also elide,
         but probing the minimum on every delay forces a cached-min
         refresh and costs more than the rare extra elision saves.) *)
      if target <= c.horizon && Wheel.is_empty t.events then begin
        c.now <- target;
        t.n_elided <- t.n_elided + 1
      end
      else begin
        c.pending_delay <- target;
        perform t.delay_eff
      end
  | None -> invalid_arg "Sim.delay: not inside a simulation process"

let current () =
  match Domain.DLS.get current_key with
  | Some t -> t
  | None -> invalid_arg "Sim.current: not inside a simulation process"

let spot t = { owner = t; parked = -1 }

let is_parked s = s.parked >= 0

let park s =
  if s.parked >= 0 then invalid_arg "Sim.park: spot already holds a process";
  match Domain.DLS.get current_key with
  | Some t when t == s.owner ->
      s.parked <- t.cur_pid;
      perform t.park_eff
  | Some _ -> invalid_arg "Sim.park: spot belongs to another simulation"
  | None -> invalid_arg "Sim.park: not inside a simulation process"

(* The woken process takes the push-sequence slot its wake-up takes
   here, at the current instant: equal-time events keep their order. *)
let wake s =
  let pid = s.parked in
  if pid >= 0 then begin
    s.parked <- -1;
    push_k s.owner ~at:s.owner.clock.now pid
  end

(* [Wheel.min_gt events now]: an event pushed at the current instant
   would be the very next to pop. *)
let none_due_now t = Wheel.min_gt t.events t.clock.now

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
  let pid = s.parked in
  if pid >= 0 then begin
    let t = s.owner in
    s.parked <- -1;
    t.n_elided <- t.n_elided + 1;
    push_k t ~at:(t.clock.now +. d) pid
  end

(* A finished process's slot keeps its consumed continuation, which
   holds no stack. *)
let exec t body =
  let pid = take t.procs in
  t.cur_pid <- pid;
  match_with body ()
    {
      retc =
        (fun () ->
          release t.procs t.cur_pid;
          t.n_finished <- t.n_finished + 1);
      exnc =
        (fun exn ->
          release t.procs t.cur_pid;
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
              (* Preallocated: parks the continuation in the process's
                 slot and queues its pid at [pending_delay], the
                 absolute wake-up the performer just stored. The
                 annotation applies this branch's [b = unit] equation
                 locally instead of letting it unify [b] away for the
                 other branches. *)
              (t.delay_handler : ((b, unit) continuation -> unit) option)
          | Park st when st == t ->
              (t.park_handler : ((b, unit) continuation -> unit) option)
          | _ -> None);
    }

let spawn t ?name f =
  ignore name;
  t.n_spawned <- t.n_spawned + 1;
  schedule t ~at:t.clock.now (fun () -> exec t f)

(* Run one popped event. Branches are ordered by frequency:
   continuations dominate, then timed deliveries, then callbacks. *)
let[@inline] dispatch t code =
  let kind = code land 3 and i = code lsr kind_bits in
  if kind = 2 then begin
    t.cur_pid <- i;
    continue t.procs.slots.(i) ()
  end
  else if kind = 1 then t.ports.slots.(i land ((1 lsl port_bits) - 1)) (i lsr port_bits)
  else begin
    let f = t.cbs.slots.(i) in
    (* Don't retain the callback. *)
    t.cbs.slots.(i) <- nop;
    release t.cbs i;
    f ()
  end

(* The uninstrumented hot loop. [horizon] is [t.clock.horizon] as the
   boxed float [run] already holds, so passing it to the wheel boxes
   nothing. *)
let run_plain t horizon =
  let processed = ref 0 in
  let code = ref (Wheel.take_below t.events horizon t.scratch) in
  while !code >= 0 do
    t.clock.now <- t.scratch.(0);
    incr processed;
    dispatch t !code;
    code := Wheel.take_below t.events horizon t.scratch
  done;
  !processed

(* Same loop with the injected clock stamped around the pop and the
   dispatch. Note the dispatch category measures everything until
   control returns to the scheduler: a resumed fiber's host time (its
   transactional work, DTM handling, network sends) lands in
   [delay_resume] or [callback] unless the fiber claims the dispatch
   for [dtm]/[network] through [prof_mark]. Two clock reads per
   event. *)
let run_profiled t clk horizon =
  let processed = ref 0 in
  let continue_run = ref true in
  while !continue_run do
    let t0 = clk () in
    let code = Wheel.take_below t.events horizon t.scratch in
    if code >= 0 then begin
      t.clock.now <- t.scratch.(0);
      incr processed;
      let t1 = clk () in
      t.prof_s.(0) <- t.prof_s.(0) +. (t1 -. t0);
      t.prof_n.(0) <- t.prof_n.(0) + 1;
      let kind = code land 3 in
      let base = if kind = 2 then 1 else if kind = 1 then 2 else 3 in
      t.prof_tag <- -1;
      dispatch t code;
      let cat = if t.prof_tag >= 0 then t.prof_tag else base in
      t.prof_s.(cat) <- t.prof_s.(cat) +. (clk () -. t1);
      t.prof_n.(cat) <- t.prof_n.(cat) + 1
    end
    else begin
      t.prof_s.(0) <- t.prof_s.(0) +. (clk () -. t0);
      continue_run := false
    end
  done;
  !processed

let run t ?until () =
  let horizon = match until with Some h -> h | None -> infinity in
  t.clock.horizon <- horizon;
  let outer = Domain.DLS.get current_key in
  Domain.DLS.set current_key t.self_opt;
  let processed =
    Fun.protect
      ~finally:(fun () ->
        t.clock.horizon <- infinity;
        Domain.DLS.set current_key outer)
      (fun () ->
        match t.host_clock with
        | None -> run_plain t horizon
        | Some clk -> run_profiled t clk horizon)
  in
  if t.scratch.(0) = infinity then begin
    (* The queue drained before the horizon: the caller asked for the
       window up to [until], so the clock must still land there. *)
    match until with
    | Some h when t.clock.now < h -> t.clock.now <- h
    | Some _ | None -> ()
  end
  else
    (* A queued event lies past the horizon: clamp the clock but leave
       the event queued, so a later [run] call resumes exactly where
       this one stopped. *)
    t.clock.now <- horizon;
  processed

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
  arm (t.clock.now +. period)
