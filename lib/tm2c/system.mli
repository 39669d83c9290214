(** Wire protocol between application cores and DTM service cores, and
    the shared runtime environment handed to both sides.

    Lock acquisitions are request/response round trips; releases are
    fire-and-forget (no response), halving the release message count.
    Write-lock requests are batched per responsible node (Section
    3.3's write-lock batching). *)

type request_kind =
  | Read_lock of Types.addr
  | Write_locks of Types.addr list
  | Release_reads of Types.addr list
  | Release_writes of Types.addr list
  | Barrier_reached
      (** privatization barrier (Section 8): exchanged directly
          between application cores, never sent to the DTM *)
  | Exclusive_acquire
      (** irrevocable transactions (Section 2's sketched extension):
          ask for exclusive access to this node's whole partition; the
          node replies Granted once it holds no locks and queues the
          request until then *)
  | Exclusive_release

type request = {
  tx : Types.cm_meta;
  kind : request_kind;
  req_id : int;
  epoch : int;
      (** the requester's view of the target partition's epoch at send
          time (see {!failover}); always 0 while failover is disabled
          and for address-less kinds *)
}

type response =
  | Granted
  | Conflicted of Types.conflict
  | Stale_epoch
      (** the request's epoch stamp is behind the server's view of the
          partition (or the server no longer owns it): refused without
          touching the lock table — the client re-reads the routing
          table and retries at the current owner *)

(** A lock-table mutation shipped primary -> backup over the reliable
    replication channel. Grants carry the full holder (so the replica
    can serve as contention-manager input after a failover); releases
    identify the holder by (core, attempt) like the live table.
    Revocations (enemy aborts, lease reclaims) are intentionally not
    replicated: a newer grant overwrites the writer slot, and stale
    replica entries are cleared by lease expiry after the merge. *)
type repl_op =
  | Rep_read of Types.addr * Types.holder
  | Rep_write of Types.addr list * Types.holder
  | Rep_release_reads of Types.addr list * Types.core_id * int
  | Rep_release_writes of Types.addr list * Types.core_id * int

type msg =
  | Req of request
  | Resp of { req_id : int; resp : response }
  | Repl of { src : Types.core_id; part : int; epoch : int; op : repl_op }

(** Replicated-lock-service failover state, shared by clients (routing
    + epoch stamping), primaries (replication targets) and promoted
    backups (replica merge + stale-epoch checks). All arrays are
    indexed by partition. With [fo_enabled = false], [fo_owner]
    mirrors [dtm_cores] and nothing else is ever read. *)
type failover = {
  mutable fo_enabled : bool;
  fo_epoch : int array;  (** current epoch per partition *)
  fo_owner : Types.core_id array;  (** current serving core per partition *)
  fo_primary : Types.core_id array;  (** original primary per partition *)
  fo_backup : Types.core_id array;  (** designated backup per partition *)
  fo_merged : bool array;
      (** the current owner holds authoritative state for the
          partition; cleared by an epoch bump, set again when the
          promoted backup merges its replica on the first request it
          serves for the partition *)
}

(** Admission-layer accounting, always present and all-zero on
    closed-loop runs (like the fault counters). Mutated by
    {!Admission} and the open-loop driver; read by the flight recorder
    and the JSON export, whose validator re-checks the sum invariants:
    [ol_offered = ol_admitted + ol_shed] and
    [ol_executed + ol_expired <= ol_admitted]. *)
type overload = {
  mutable ol_offered : int;
      (** arrivals presented to admission, client retries included *)
  mutable ol_admitted : int;
  mutable ol_shed : int;  (** refused at enqueue *)
  mutable ol_expired : int;  (** dropped at dequeue by the queue deadline *)
  mutable ol_executed : int;  (** queue entries that ran a transaction *)
  mutable ol_completed : int;
      (** logical requests completed (first execution only) *)
  mutable ol_goodput : int;  (** completed within the client deadline *)
  mutable ol_wasted : int;
      (** executions whose logical request had already completed — the
          duplicated work a retry storm manufactures *)
  mutable ol_retries : int;  (** client resubmissions (timeout or shed) *)
  mutable ol_retry_exhausted : int;
  mutable ol_queue_peak : int;
}

val overload_create : unit -> overload

type env = {
  sim : Tm2c_engine.Sim.t;
  net : msg Tm2c_noc.Network.t;
  shmem : Tm2c_memory.Shmem.t;
  regs : Tm2c_memory.Atomic_reg.t;
      (** one status register per core, indexed by core id *)
  policy : Cm.policy;
  owner_of : Types.addr -> Types.core_id;
      (** responsible DTM core for an address (hashing, Section 3.2) *)
  dtm_cores : Types.core_id array;
      (** all DTM cores in ascending id order — irrevocable
          transactions acquire them in this order (deadlock freedom) *)
  skew : float array;
      (** per-core local-clock offset: cores have no global clock *)
  stats : Stats.t;
  mutable serve_inline : (self:Types.core_id -> request -> unit) option;
      (** multitasking deployment only: handler invoked by application
          cores for service requests that arrive while they await their
          own responses *)
  batching : bool;
      (** write-lock batching enabled (Section 3.3); the ablation
          bench turns it off *)
  barrier_seen : int array;
      (** per-core count of barrier-reached messages received so far;
          incremented by whichever receive loop intercepts them
          (Section 8's privatization barrier) *)
  cache_mark : int array;
      (** per requester core: the highest request id any DTM server
          has cached a response for (0: none). Request ids only grow
          per core, so a request above its mark is fresh at every
          server and skips the response-cache lookup ([Dtm]) *)
  mutable serve_defer_cycles : int;
      (** multitasking deployment only: scheduling delay before the
          service task runs when a request interrupts the application
          task mid-transaction — the non-preemptive libtask effect of
          Figure 2 (a request "cannot be served prior to [the core]
          completing its local computation") *)
  trace : Event.t Tm2c_engine.Trace.t;
      (** event-trace ring buffer; disabled by default — emit sites
          guard with [Trace.enabled] so untraced runs allocate nothing *)
  obs : Obs.t;  (** abort-causality accounting (always on) *)
  span_commit : Tm2c_engine.Span.t;
      (** phase attribution of committed attempts (see {!Phase});
          disabled by default — per core, the phase sums equal the
          summed committed-attempt durations *)
  span_abort : Tm2c_engine.Span.t;
      (** phase attribution of aborted attempts, including the
          between-attempt CM backoff *)
  faults : Tm2c_noc.Fault.t;
      (** fault-injection state (plan + counters + crashed cores);
          created with an empty plan and a [Prng.split_label] stream so
          its existence never perturbs baseline schedules *)
  mutable req_timeout_ns : float;
      (** base timeout before a pending lock request is resent
          (exponential backoff per resend, bounded); 0.0 disables
          hardening and awaits block forever as before *)
  mutable lease_ns : float;
      (** lock lease: a holder older than this is forcibly reclaimed
          (status-CAS guarded) when it blocks a new request; 0.0
          disables reclamation *)
  mutable unsafe_skip_doom_check : bool;
      (** test-only mutation hook: skip every client poll of its own
          status word, reintroducing the stale-read window the opacity
          oracle catches; never enable outside tests *)
  failover : failover;
      (** replicated-lock-service state; inert (and unread past
          [fo_owner]) until [Runtime.enable_replication] flips
          [fo_enabled] *)
  commit_lat : Tm2c_engine.Sketch.t;
      (** always-on commit-latency sketch (attempt start -> publish
          done, ns) — the same elapsed value [Tx_committed] events
          carry, but recorded unconditionally at O(1) per commit *)
  e2e_lat : Tm2c_engine.Sketch.t;
      (** end-to-end latency sketch (client arrival -> commit, ns),
          including admission queueing and retries; fed by the
          open-loop driver, empty on closed-loop runs *)
  overload : overload;  (** admission-layer accounting (always on) *)
  app_busy_until : float array;
      (** one cell: the latest end of an {!app_compute} step so far.
          The liveness watchdog counts an application core inside a
          long computation as progressing, not blocked. *)
}

(** [app_compute env cycles] charges [cycles] of application-level
    computation to the calling process (a {!Tm2c_noc.Network.compute})
    and records its end in [app_busy_until]. *)
val app_compute : env -> int -> unit

(** A core's local clock reading ([Sim.now] plus its skew). *)
val local_now : env -> core:Types.core_id -> float

(** [owner_hash addr n] maps an address onto one of [n] partitions
    (Fibonacci hashing). *)
val owner_hash : Types.addr -> int -> int

(** Partition a request belongs to for failover, from its first
    address (partition membership is a pure function of the address).
    [None] while failover is disabled, and for address-less kinds
    (barrier, exclusive mode): those are never epoch-checked and never
    failed over. *)
val failover_part : env -> request_kind -> int option

(** [bump_epoch env ~part ~by] — client [by] gives up on partition
    [part]'s primary: advance the epoch, flip routing to the backup,
    clear the merged flag, and emit {!Event.Epoch_bumped}. Guarded so
    concurrent clients bump exactly once (no-op when the owner is
    already the backup, or when failover is disabled). *)
val bump_epoch : env -> part:int -> by:Types.core_id -> unit

(** Epoch a client stamps on a request right before sending: the
    current epoch of the request's partition (0 when failover is
    disabled or the kind has no partition). *)
val epoch_for : env -> request_kind -> int
