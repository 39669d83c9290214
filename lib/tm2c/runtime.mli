(** System assembly: builds a simulated machine, partitions the cores
    between the application and the DTM service (Section 3.1), and
    runs workloads.

    Two deployments are supported:
    - [Dedicated]: disjoint sets of cores host the DTM service and the
      application; service cores are spread evenly across the chip
      (every [total/service]-th core) so each tile keeps its locality.
    - [Multitask]: every core hosts both the application and a DTM
      server (the libtask-based initial design); service requests are
      handled only when the application task yields — while it awaits
      its own responses or between operations ({!poll_service}) — so
      remote requests can wait on the application's local computation
      (the Figure 2 effect). *)

type deployment = Dedicated | Multitask

type config = {
  platform : Tm2c_noc.Platform.t;
  total_cores : int;  (** cores in use (application + service) *)
  service_cores : int;  (** DTM cores under [Dedicated] *)
  deployment : deployment;
  policy : Cm.policy;
  wmode : Tx.wmode;
  batching : bool;
      (** write-lock batching: one message per DTM node at commit
          (Section 3.3); [false] sends one message per address — the
          ablation of the paper's design choice *)
  seed : int;
}

(** Bound on the per-core local-clock offsets (3 µs); larger skew makes
    Offset-Greedy's estimated timestamps less consistent. *)
val max_skew_ns : float

(** A reasonable default: the full 48-core SCC, half the cores
    dedicated to the DTM, FairCM, lazy write acquisition. *)
val default_config : config

type t

val create : config -> t

val config : t -> config

val env : t -> System.env

val sim : t -> Tm2c_engine.Sim.t

val shmem : t -> Tm2c_memory.Shmem.t

(** Allocator over the shared memory (reserves low addresses). *)
val alloc : t -> Tm2c_memory.Alloc.t

val stats : t -> Stats.t

(** The event-trace ring buffer (see {!Tm2c_engine.Trace}); disabled
    until {!enable_tracing} is called. *)
val trace : t -> Event.t Tm2c_engine.Trace.t

(** Abort-causality accounting (always on). *)
val obs : t -> Obs.t

(** Turn on event tracing for this runtime's simulation. *)
val enable_tracing : t -> unit

(** Fault-injection state (plan, counters, crashed cores). Always
    present; created with an empty plan and a [Prng.split_label]
    stream of the root seed, so a run that never installs a plan is
    bit-for-bit identical to one that predates fault injection. *)
val faults : t -> Tm2c_noc.Fault.t

(** Install a fault plan (drop/dup/delay per link, DS-server stall
    windows, crash-stops). Call before {!run} for reproducibility. *)
val set_fault_plan : t -> Tm2c_noc.Fault.plan -> unit

(** Protocol hardening knobs, both disabled (0.0) by default:
    [timeout_ns] — base DTM request timeout, after which the request is
    resent with the same sequence number (exponential backoff per
    resend, bounded; the server absorbs duplicates); [lease_ns] — lock
    lease, after which a holder blocking a new request is forcibly
    reclaimed under a status-word CAS (orphan locks of crashed cores). *)
val set_hardening : t -> ?timeout_ns:float -> ?lease_ns:float -> unit -> unit

(** Test-only mutation hook: disable every client-side poll of its own
    status word (both the attempt-boundary checks and the post-grant
    re-check inside the visible read). This reintroduces the
    stale-read window in which a doomed attempt samples memory after
    its enemy published — the defect the opacity oracle exists to
    catch. Never enable outside tests. *)
val set_skip_doom_check : t -> bool -> unit

(** Replicated DS-lock service. [replicas = 1]: every primary ships
    its lock-table mutations (grants, releases) to the neighboring
    primary over a reliable FIFO channel; clients that exhaust their
    resend patience on a partition bump its epoch, re-route to that
    backup, and the backup reconstructs authoritative state from the
    replica (plus lease expiry for in-flight grants). Requests stamped
    with a stale epoch are refused, so a zombie primary can never
    grant a conflicting lock. [replicas = 0] (the default) is a strict
    no-op. Requires the dedicated deployment with at least 2 service
    cores; pair with {!set_hardening} (timeouts to detect the dead
    primary, leases to clear orphaned grants). Call before {!run}. *)
val enable_replication : t -> replicas:int -> unit

(** Replication degree in effect (0 or 1). *)
val replicas : t -> int

(** Install admission control for open-loop traffic (see {!Admission}):
    bounded per-core queues under the given overload policy. Queues are
    materialized lazily, so enabling this perturbs nothing until a
    driver offers arrivals. Returns the admission state (the open-loop
    driver holds onto it). Call before {!run}; at most once. *)
val enable_admission :
  t -> policy:Admission.policy -> ?retry_after_ns:float -> unit -> Admission.t

(** The admission state, once {!enable_admission} has run. *)
val admission : t -> Admission.t option

(** Host-side store with a trace record ([Event.Host_write]):
    benchmark setup and weak-atomicity private-node initialization
    must go through here (not bare [Shmem.poke]) so the checkers see
    every untraced-core write as an external version of the address.
    Costs nothing when tracing is off. *)
val host_write : t -> Types.addr -> int -> unit

(** Phase-attribution aggregates (see {!Tm2c_engine.Span} and
    {!Phase}): committed and aborted attempts accumulate separately,
    so that per core the committed phase sums equal the summed
    committed-attempt durations. Disabled until {!enable_profiling}. *)
val span_commit : t -> Tm2c_engine.Span.t

val span_abort : t -> Tm2c_engine.Span.t

(** Turn on per-attempt phase attribution. *)
val enable_profiling : t -> unit

(** The flight recorder, once {!enable_recorder} has run. *)
val recorder : t -> Recorder.t option

(** Install and start the flight recorder (see {!Recorder}): periodic
    bounded-memory metrics snapshots every [window_ns] of virtual
    time, optionally streamed as OpenMetrics-style text blocks through
    [out]. Trace events are counted through the trace's second tap
    ([Trace.set_tap]), leaving the primary sink to the checker stack.
    Its per-window rows are the JSON export's time series. Call before
    {!run}; at most once. *)
val enable_recorder :
  t -> window_ns:float -> ?out:(string -> unit) -> unit -> unit

(** Emit the recorder's final partial window ("# eof"-terminated).
    Idempotent; a no-op when no recorder is installed. The workload
    collection paths call it, so drivers rarely need to. *)
val finish_recorder : t -> unit

(** Install the reader for the checker sink's high-water mark (e.g.
    [Collector.length]); surfaced in reports, JSON and recorder
    snapshots. The runtime cannot name the checker library itself
    (dependency cycle), hence the generic reader. *)
val set_sink_high_water : t -> (unit -> int) -> unit

(** Current checker-sink high-water mark (0 when no reader installed). *)
val sink_high_water : t -> int

(** Host-side self-profiler: inject a monotonic wall clock (seconds;
    bin/ passes the Unix wall clock) into the scheduler. Host time is
    attributed to wheel / delay-resume / mailbox-delivery / callback /
    dtm / network categories (see {!Tm2c_engine.Sim.set_host_clock});
    virtual results are identical either way. *)
val enable_self_profile : t -> clock:(unit -> float) -> unit

(** (category, host seconds, dispatches) per profiler category; zeros
    unless {!enable_self_profile} ran before {!run}. *)
val self_profile : t -> (string * float * int) array

(** DTM servers instantiated so far (all of them once
    [start_services] has run), in core order. *)
val servers : t -> Dtm.server list

(** Application cores, in id order. *)
val app_cores : t -> Types.core_id array

val dtm_cores : t -> Types.core_id array

(** Fresh PRNG stream derived from the config seed (deterministic). *)
val fork_prng : t -> Tm2c_engine.Prng.t

(** Labelled (non-mutating) split of the root stream: same label, same
    stream, and the root is never advanced — use for subsystems (e.g.
    open-loop arrival generators) whose existence must not perturb the
    {!fork_prng} sequence closed-loop baselines consume. *)
val labeled_prng : t -> label:string -> Tm2c_engine.Prng.t

(** Hand out one of the spare atomic registers (beyond the per-core
    status words) — e.g. the bank baseline's global test-and-set
    lock. Raises when the (small) supply is exhausted. *)
val spare_reg : t -> int

(** Create the transactional context for an application core. *)
val app_ctx : t -> Types.core_id -> Tx.ctx

(** Spawn the DTM service (dedicated: one service process per DTM
    core; multitask: installs the inline handler). Call once, before
    [run]. Also arms any [scrash=] points of the installed fault plan
    (dedicated only), so install the plan first. *)
val start_services : t -> unit

(** Spawn an application process on a core. *)
val spawn_app : t -> Types.core_id -> (unit -> unit) -> unit

(** Under [Multitask], drain and serve pending requests; a no-op under
    [Dedicated]. Application drivers call this between operations. *)
val poll_service : t -> core:Types.core_id -> unit

(** Privatization barrier (Section 8): blocks until every application
    core has called it, implemented with barrier-reached messages over
    the direct application-core communication paths. After the barrier,
    data written by transactions before it may safely be accessed
    non-transactionally. Must be called from application processes
    (one call per application core per round). *)
val barrier : t -> core:Types.core_id -> unit

(** Run the simulation to completion (or to [until], virtual ns).
    Returns the number of events processed — or 0 with {!wedged} set
    when the watchdog tripped. *)
val run : t -> ?until:float -> unit -> int

(** Liveness watchdog: every [window_ns] of virtual time, look for
    progress since the previous window — an attempt resolving (commit
    or abort, so a livelocking run rides to its horizon), an operation
    completing, or an application core computing
    ({!System.app_compute}); only cores blocked forever show none.
    [stall_windows] consecutive flat windows while spawned processes
    remain unfinished aborts the run early ({!run} returns 0 and
    {!wedged} turns true) instead of burning virtual time to the
    horizon. Call before {!run}. *)
val enable_watchdog : t -> window_ns:float -> stall_windows:int -> unit

(** The last {!run} was cut short by the watchdog. *)
val wedged : t -> bool
