type request_kind =
  | Read_lock of Types.addr
  | Write_locks of Types.addr list
  | Release_reads of Types.addr list
  | Release_writes of Types.addr list
  | Barrier_reached
  | Exclusive_acquire
  | Exclusive_release

type request = {
  tx : Types.cm_meta;
  kind : request_kind;
  req_id : int;
  epoch : int;
      (* the requester's view of the target partition's epoch at send
         time; always 0 while failover is disabled *)
}

type response = Granted | Conflicted of Types.conflict | Stale_epoch

(* Lock-table mutations shipped primary -> backup. Grants carry the
   full holder (the backup's replica can then serve as CM input after
   a failover); releases identify the holder by (core, attempt), the
   same keys the live table uses. Revocations (enemy aborts, lease
   reclaims) are intentionally not replicated: a newer grant
   overwrites the writer slot, and anything else left stale in the
   replica is cleared by lease expiry after the merge. *)
type repl_op =
  | Rep_read of Types.addr * Types.holder
  | Rep_write of Types.addr list * Types.holder
  | Rep_release_reads of Types.addr list * Types.core_id * int
  | Rep_release_writes of Types.addr list * Types.core_id * int

type msg =
  | Req of request
  | Resp of { req_id : int; resp : response }
  | Repl of { src : Types.core_id; part : int; epoch : int; op : repl_op }

(* Replicated-lock-service failover state, shared by clients (routing
   + epoch stamping), primaries (replication targets) and backups
   (merge + stale-epoch checks). Arrays are indexed by partition;
   with [fo_enabled = false] nothing ever reads past [fo_owner],
   which then mirrors [dtm_cores] exactly. *)
type failover = {
  mutable fo_enabled : bool;
  fo_epoch : int array;  (* current epoch per partition *)
  fo_owner : Types.core_id array;  (* current serving core per partition *)
  fo_primary : Types.core_id array;  (* original primary per partition *)
  fo_backup : Types.core_id array;  (* designated backup per partition *)
  fo_merged : bool array;
      (* the current owner holds authoritative state for the
         partition; cleared by an epoch bump, set back when the
         promoted backup merges its replica *)
}

(* Admission-layer accounting, always present (all-zero on closed-loop
   runs, like the fault counters). Mutated only by Admission/open-loop
   drivers; read by the recorder and the JSON export. The invariant the
   validator re-checks: ol_offered = ol_admitted + ol_shed, and every
   admitted entry is eventually executed, expired, or still queued when
   the run ends (ol_executed + ol_expired <= ol_admitted). *)
type overload = {
  mutable ol_offered : int;  (* arrivals presented to admission, retries included *)
  mutable ol_admitted : int;
  mutable ol_shed : int;  (* refused at enqueue *)
  mutable ol_expired : int;  (* dropped at dequeue by the queue deadline *)
  mutable ol_executed : int;  (* queue entries that ran a transaction *)
  mutable ol_completed : int;  (* logical requests completed (first execution) *)
  mutable ol_goodput : int;  (* completed within the client deadline *)
  mutable ol_wasted : int;  (* executions of already-completed requests *)
  mutable ol_retries : int;  (* client resubmissions (timeout or shed) *)
  mutable ol_retry_exhausted : int;
  mutable ol_queue_peak : int;
}

let overload_create () =
  {
    ol_offered = 0;
    ol_admitted = 0;
    ol_shed = 0;
    ol_expired = 0;
    ol_executed = 0;
    ol_completed = 0;
    ol_goodput = 0;
    ol_wasted = 0;
    ol_retries = 0;
    ol_retry_exhausted = 0;
    ol_queue_peak = 0;
  }

type env = {
  sim : Tm2c_engine.Sim.t;
  net : msg Tm2c_noc.Network.t;
  shmem : Tm2c_memory.Shmem.t;
  regs : Tm2c_memory.Atomic_reg.t;
  policy : Cm.policy;
  owner_of : Types.addr -> Types.core_id;
  dtm_cores : Types.core_id array;
  skew : float array;
  stats : Stats.t;
  mutable serve_inline : (self:Types.core_id -> request -> unit) option;
  batching : bool;
  barrier_seen : int array;
  cache_mark : int array;
  mutable serve_defer_cycles : int;
  trace : Event.t Tm2c_engine.Trace.t;
  obs : Obs.t;
  (* Phase attribution (see Phase): committed and aborted attempts
     aggregate separately so the committed invariant — per core, the
     phase sums equal the summed attempt durations — stays exact. *)
  span_commit : Tm2c_engine.Span.t;
  span_abort : Tm2c_engine.Span.t;
  faults : Tm2c_noc.Fault.t;
  (* Hardening knobs, disabled (0.0) by default so pristine runs take
     the exact pre-hardening code paths. *)
  mutable req_timeout_ns : float;
  mutable lease_ns : float;
  (* Test-only mutation hook: when set, clients skip every poll of
     their own status word, reintroducing the stale-read window the
     opacity oracle exists to catch (a doomed attempt keeps sampling
     memory after its enemy published). Never enable outside tests. *)
  mutable unsafe_skip_doom_check : bool;
  failover : failover;
  (* Always-on commit-latency sketch (attempt start -> publish done),
     same elapsed value Tx_committed events carry: one O(1) Sketch.add
     per commit, so it never needs tracing enabled. *)
  commit_lat : Tm2c_engine.Sketch.t;
  (* End-to-end latency sketch (client arrival -> commit, including
     admission queueing and every retry round trip): fed by the
     open-loop driver, empty on closed-loop runs. *)
  e2e_lat : Tm2c_engine.Sketch.t;
  overload : overload;
  (* Latest end of an application compute step, for the watchdog: a
     core inside a long computation is busy, not blocked. One cell of a
     float array, so the store on every compute step allocates no box. *)
  app_busy_until : float array;
}

let app_compute env cycles =
  let d = Tm2c_noc.Network.cycles_ns env.net cycles in
  let until = Tm2c_engine.Sim.now env.sim +. d in
  if until > env.app_busy_until.(0) then env.app_busy_until.(0) <- until;
  Tm2c_engine.Sim.delay d

let local_now env ~core = Tm2c_engine.Sim.now env.sim +. env.skew.(core)

let owner_hash addr n =
  (* Fibonacci hashing on the word address. *)
  let h = addr * 0x9E3779B1 land max_int in
  (h lsr 16) mod n

(* Partition a request belongs to for failover, from its first
   address; [None] while failover is off. Partition membership is a
   pure function of the address, so both sides compute it
   independently. Address-less kinds (barrier, exclusive mode) have no
   partition — they are never epoch-checked and never failed over. *)
let failover_part env kind =
  let fo = env.failover in
  if not fo.fo_enabled then None
  else
    let n_parts = Array.length fo.fo_epoch in
    match kind with
    | Read_lock a
    | Write_locks (a :: _)
    | Release_reads (a :: _)
    | Release_writes (a :: _) -> Some (owner_hash a n_parts)
    | Write_locks [] | Release_reads [] | Release_writes [] -> None
    | Barrier_reached | Exclusive_acquire | Exclusive_release -> None

(* Client-side failover trigger. Guarded so that concurrent clients
   giving up on the same dead primary bump the epoch exactly once:
   after the flip the owner is the backup and later calls are no-ops
   (with one replica there is nowhere further to fail over to). *)
let bump_epoch env ~part ~by =
  let fo = env.failover in
  if fo.fo_enabled && fo.fo_owner.(part) = fo.fo_primary.(part) then begin
    fo.fo_epoch.(part) <- fo.fo_epoch.(part) + 1;
    fo.fo_owner.(part) <- fo.fo_backup.(part);
    fo.fo_merged.(part) <- false;
    let c = Tm2c_noc.Fault.counters env.faults in
    c.Tm2c_noc.Fault.failovers <- c.Tm2c_noc.Fault.failovers + 1;
    if Tm2c_engine.Trace.enabled env.trace then
      Tm2c_engine.Trace.record env.trace
        ~now:(Tm2c_engine.Sim.now env.sim)
        (Event.Epoch_bumped { part; epoch = fo.fo_epoch.(part); by })
  end

(* Epoch a client stamps on a request right before sending. *)
let epoch_for env kind =
  match failover_part env kind with
  | Some part -> env.failover.fo_epoch.(part)
  | None -> 0
