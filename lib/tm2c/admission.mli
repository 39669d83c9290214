(** Bounded per-core admission queues with pluggable overload
    policies — the runtime half of the open-loop traffic model (the
    client half is [Tm2c_apps.Openloop]).

    Closed-loop workloads are self-limiting: a core issues its next
    transaction only after the previous one finishes, so queues cannot
    grow. Open-loop arrivals keep coming regardless of service
    progress, and without admission control an overloaded run both
    livelocks (every queue grows without bound) and lies about it
    (latency becomes the queue length). This module bounds the damage:
    every arrival is either admitted onto the target core's queue or
    *shed* with a retry-after hint, and queued entries past the queue
    deadline are dropped at dequeue before any transactional work is
    wasted on them.

    All accounting goes to the always-on [System.overload] counters
    (all-zero on closed-loop runs), and the lifecycle is traced with
    [Req_admitted] / [Req_shed] / [Req_expired] /
    [Retry_budget_exhausted] events when tracing is enabled. *)

(** Overload policy, fixed at creation:
    - [Unbounded]: no admission control (the ablation; queues grow
      without bound and nothing is ever shed);
    - [Reject]: admit while the queue is below [capacity], else shed
      ([Shed_queue_full]) — plain load shedding;
    - [Token_bucket]: credit-based admission — the bucket refills at
      [rate_per_ms] tokens per virtual millisecond up to [burst];
      an arrival needs one token, else it is shed ([Shed_no_tokens],
      with a retry-after hint of the time until the next token); the
      queue is additionally bounded by [capacity];
    - [Queue_deadline]: admit up to [capacity], but drop entries that
      waited longer than [deadline_ns] at dequeue ([Req_expired]) —
      sheds exactly the work whose client has likely timed out. *)
type policy =
  | Unbounded
  | Reject of { capacity : int }
  | Token_bucket of { capacity : int; rate_per_ms : float; burst : float }
  | Queue_deadline of { capacity : int; deadline_ns : float }

(** Short label for reports and JSON: ["unbounded"], ["reject"],
    ["token"], ["deadline"]. *)
val policy_name : policy -> string

(** A queued request: opaque [e_payload] (the driver's key into its
    own request table; the open-loop driver reuses a key once no entry
    names it), the logical request's first-arrival instant,
    this submission's enqueue instant, and the retries consumed before
    this submission. *)
type entry = {
  e_tenant : int;
  e_payload : int;
  e_arrival_ns : float;
  e_enqueue_ns : float;
  e_retries : int;
}

type t

type verdict =
  | Admitted
  | Shed of { reason : Types.shed_reason; retry_after_ns : float }

(** [create env ~policy ()] — queues are materialized lazily per core.
    [retry_after_ns] (default 50 µs) is the flat backoff hint returned
    on shed when the policy has no better estimate. *)
val create :
  System.env -> policy:policy -> ?retry_after_ns:float -> unit -> t

val policy : t -> policy

(** Present one arrival (or client retry) to admission control.
    Counts it as offered, then either enqueues it (emitting
    [Req_admitted], waking the core's parked worker) or sheds it
    (emitting [Req_shed]). *)
val offer :
  t ->
  core:Types.core_id ->
  tenant:int ->
  payload:int ->
  arrival_ns:float ->
  retries:int ->
  verdict

(** Dequeue the next entry for [core]'s worker, dropping (and
    counting, [Req_expired]) entries past the queue deadline. [None]
    when the queue is empty. Each dropped entry is passed to
    [on_expired] exactly once, after it is counted: it never reaches
    the worker, so this report is how a caller that tracks its own
    entries (the open-loop driver's per-request count) learns that the
    entry has left the queue. *)
val take :
  ?on_expired:(entry -> unit) -> t -> core:Types.core_id -> entry option

(** Park the calling worker fiber until the next admitted arrival on
    this core (or {!wake_all}). At most one parked worker per core.
    Must be called from within a spawned process. *)
val wait : t -> core:Types.core_id -> unit

(** Wake every parked worker (driver shutdown: workers then observe
    the stop flag and drain). *)
val wake_all : t -> unit

(** Current depth of [core]'s queue. *)
val depth : t -> core:Types.core_id -> int

(** Entries currently queued across all cores — nonzero at collection
    time means the drain horizon cut the run short. *)
val pending : t -> int

(** Driver-side accounting for dequeued entries, routed to
    [System.overload] (and the [e2e_lat] sketch / trace). *)

val note_executed : t -> unit

(** [note_completed t ~e2e_ns ~good] — a logical request finished for
    the first time: records arrival→commit latency in the always-on
    end-to-end sketch; [good] marks completion within the client
    deadline (goodput). *)
val note_completed : t -> e2e_ns:float -> good:bool -> unit

(** An execution whose logical request had already completed — the
    duplicated work manufactured by client retries. *)
val note_wasted : t -> unit

val note_retry : t -> unit

(** The client gave up on a request after [retries] resubmissions
    (emits [Retry_budget_exhausted]). *)
val note_retry_exhausted :
  t -> core:Types.core_id -> tenant:int -> retries:int -> unit
