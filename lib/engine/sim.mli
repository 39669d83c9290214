(** Deterministic discrete-event simulator built on OCaml 5 effects.

    A simulation owns a virtual clock (nanoseconds, [float]) and an
    event queue. Processes are ordinary OCaml functions that perform
    the {!delay} and {!park} effects to advance or block on virtual
    time; the scheduler is single-threaded and deterministic (events at
    equal times fire in schedule order).

    Typical use:
    {[
      let sim = Sim.create () in
      Sim.spawn sim (fun () -> Sim.delay 100.0; ...);
      Sim.run sim
    ]} *)

type t

(** Raised inside blocked processes that are terminated when the
    simulation is stopped with pending waiters. *)
exception Stopped

val create : unit -> t

(** Current virtual time in nanoseconds. *)
val now : t -> float

(** [spawn t ?name f] schedules process [f] to start at the current
    virtual time. May be called before [run] or from within a running
    process. An exception escaping [f] (other than {!Stopped}) aborts
    the simulation. *)
val spawn : t -> ?name:string -> (unit -> unit) -> unit

(** [schedule t ~at f] runs callback [f] at virtual time [at] (clamped
    to the current time if in the past). [f] must not perform effects;
    use [spawn] for that.
    @raise Invalid_argument if [at] is NaN or infinite. *)
val schedule : t -> at:float -> (unit -> unit) -> unit

(** [register_port t handler] registers a delivery handler and returns
    its port id. Ports are the allocation-free alternative to
    {!schedule} for high-frequency timed deliveries: the subscriber
    registers one handler up front, and each delivery is just two ints
    packed into the queued event (see {!schedule_port}) instead of a
    fresh closure. Ports cannot be unregistered; they live as long as
    the simulation.
    @raise Invalid_argument past 2{^20} ports, the packed width. *)
val register_port : t -> (int -> unit) -> int

(** [schedule_port t ~at ~port ~slot] arranges for the handler
    registered under [port] to be called with [slot] at virtual time
    [at] (clamped like {!schedule}). The handler must not perform
    effects. [slot] must be non-negative and below 2{^40}.
    @raise Invalid_argument if [at] is NaN or infinite. *)
val schedule_port : t -> at:float -> port:int -> slot:int -> unit

(** Advance the calling process's virtual time by [d] nanoseconds.
    Must be called from within a spawned process. Negative delays are
    treated as zero.
    @raise Invalid_argument if [d] is NaN or infinite. *)
val delay : float -> unit

(** The simulation of the calling process.
    @raise Invalid_argument outside a simulation process. *)
val current : unit -> t

(** {2 Parking}

    A spot is where one process blocks until another party wakes it.
    The spot carries no value: whatever the process waits for travels
    beside the spot, in the waited-on structure (a mailbox's hand-off
    field, an ivar's contents). Parking allocates no closure. *)
type spot

val spot : t -> spot

(** [park s] blocks the calling process in [s] until {!wake}.
    @raise Invalid_argument when [s] already holds a process, or
    outside a process of [s]'s simulation. *)
val park : spot -> unit

val is_parked : spot -> bool

(** [wake s] queues the process parked in [s] to resume at the current
    virtual time, after the events already queued for that instant.
    No-op when [s] is empty. *)
val wake : spot -> unit

(** No queued event is due at the current instant, so an event pushed
    now would be the very next to run — the precondition of
    {!hand_off_after}. *)
val none_due_now : t -> bool

(** [hand_off_after s d] is an exact shortcut for {!wake} followed by
    the woken process's [delay d]: the process parked in [s] is queued
    straight at [now + d], at the sequence slot that delay would take,
    and must skip the delay itself. Call it only as the last action of
    a port handler, and only when {!none_due_now} holds, so that the
    wake-up event would have been the very next one. The saved wake-up
    counts in {!elided}. *)
val hand_off_after : spot -> float -> unit

(** [run t ?until ()] executes events until the queue is empty or the
    clock passes [until]. Returns the number of events processed.
    Processes still parked when the run ends are abandoned (their
    continuations are dropped). *)
val run : t -> ?until:float -> unit -> int

(** Capacity of the continuation table: one slot per live process,
    taken when a process starts and freed when it ends. Exposed for the
    slot-reuse test. *)
val process_slots : t -> int

(** Number of processes spawned so far. *)
val spawned : t -> int

(** Number of processes that ran to completion. *)
val finished : t -> int

(** Number of events elided by the scheduler fast paths: a {!delay}
    whose wake-up could not interleave with any queued event advances
    the clock in place instead of round-tripping through the event set,
    and a {!hand_off_after} saves the wake-up event.
    [run]'s return value plus this count — the *logical* event count —
    is invariant under these optimizations and is the figure benchmarks
    should report. *)
val elided : t -> int

(** [every t ~period f] calls [f at] at virtual times [at = now +
    period], [at + period], ... through ordinary {!schedule} slots,
    until [f] returns [false]. Ticks never keep a run alive: a tick
    stops rescheduling once only [every] ticks remain queued, so a
    simulation that drains ends whatever number of ticks is installed.
    [f] must not perform effects; an exception from [f] propagates out
    of {!run} and ends the ticking. *)
val every : t -> period:float -> (float -> bool) -> unit

(** Host-side self-profiler. The engine never reads wall time itself
    (virtual determinism is the contract the source lint enforces):
    the harness *injects* a monotonic clock in seconds (the Unix
    wall clock, from bin/), and {!run} switches to an
    instrumented loop that attributes host time to scheduler
    categories — ["wheel"] (event-set pop), ["delay_resume"]
    (continuing a parked fiber, including the fiber's own execution up
    to its next suspension), ["mailbox_delivery"] (port dispatch),
    ["callback"], plus the subsystem refinements ["dtm"] and
    ["network"] claimed through {!prof_mark}. Costs two clock reads
    per event; [None] restores the uninstrumented loop (accumulated
    figures are kept). Virtual results are identical either way. *)
val set_host_clock : t -> (unit -> float) option -> unit

(** [prof_mark t cat] attributes the currently executing dispatch to
    refinement category [cat] ({!prof_cat_dtm} or {!prof_cat_network})
    instead of its scheduling category. First mark per dispatch wins
    (a send issued from inside DTM handling stays "dtm"); no-op
    without an injected clock. Attribution is at whole-dispatch
    granularity, so the categories partition the measured host time
    exactly. *)
val prof_mark : t -> int -> unit

val prof_cat_dtm : int

val prof_cat_network : int

(** (category, host seconds, samples) per category, in a fixed order;
    all zero until a clock has been injected and {!run} has run. *)
val host_profile : t -> (string * float * int) array
