open Types
open Tm2c_noc
open Tm2c_memory

type server = {
  core : core_id;
  locks : Locktable.t;
  mutable served : int;
  (* Irrevocable-transaction support: the partition's exclusive owner
     and the FIFO of transactions waiting to become it. While an
     exclusive grant is active or pending, normal lock requests are
     refused so the table drains. *)
  mutable exclusive : (core_id * int) option;
  excl_queue : System.request Queue.t;
  (* Service observability: input-queue depth and lock-table occupancy
     sampled at each request pickup. *)
  mutable q_sum : int;
  mutable q_max : int;
  mutable occ_sum : int;
  mutable occ_max : int;
  (* Virtual ns spent inside [handle] (pickup to response sent):
     busy_ns / run duration is the service core's utilization. *)
  mutable busy_ns : float;
  (* Lease reclamations performed by this server (the global figure
     lives in Fault.counters; the per-server split feeds the flight
     recorder's per-partition gauges). *)
  mutable lease_reclaims : int;
  (* Duplicate absorption: per requester, the newest awaited request id
     seen and the response sent for it ([pending] while it is still
     queued, e.g. a waiting Exclusive_acquire). Requests are idempotent
     via their per-core sequence number: a duplicate of the newest
     request replays the cached response without re-executing;
     anything older is dropped. Entries carry their last-touched
     instant so the cache stays bounded: an entry idle past the
     absorption window (see [cache_ttl_ns]) can never absorb a live
     resend and is evicted. One flat int per requester core id, the
     request id and the reply code packed together ([cache_entry]), so
     a reply writes one word: the cache is written on every awaited
     reply, and must cost neither a hash lookup nor a record that
     outlives the round trip. It is read only when the request can be
     a duplicate: [env.cache_mark], shared by all servers, holds per
     requester the highest id any server has cached, and a request
     above it skips the lookup. The mark only ever rises, so an
     evicted entry leaves it an upper bound, never wrong. *)
  n_cores : int;
  mutable cache : int array;  (* 0: no entry; made with the first entry *)
  (* Virtual instant each entry was last written or replayed; kept
     (and made) only while eviction can run, [cache_ttl_ns] > 0. *)
  mutable c_stamp : float array;
  (* Failover: replica lock tables this server maintains as the backup
     of other partitions, fed by [System.Repl] messages from their
     primaries. Keyed by partition index; merged into [locks] when
     this server is promoted. *)
  replica : (int, Locktable.t) Hashtbl.t;
}

(* Cached responses as small ints: the cache stays flat, and a replay
   hands back the same shared constant the first reply sent. *)
let pending = 0

(* An entry: the request id above the 3-bit reply code. Request ids
   are positive, so a live entry is never 0. *)
let cache_entry ~req_id code = (req_id lsl 3) lor code
let entry_req_id e = e lsr 3
let entry_code e = e land 7

let resp_code = function
  | System.Granted -> 1
  | System.Conflicted Raw -> 2
  | System.Conflicted Waw -> 3
  | System.Conflicted War -> 4
  | System.Stale_epoch -> 5

let resp_of_code = function
  | 1 -> System.Granted
  | 2 -> System.Conflicted Raw
  | 3 -> System.Conflicted Waw
  | 4 -> System.Conflicted War
  | 5 -> System.Stale_epoch
  | _ -> invalid_arg "Dtm.resp_of_code"

let make ~n_cores ~core =
  {
    core;
    locks = Locktable.create ();
    served = 0;
    exclusive = None;
    excl_queue = Queue.create ();
    q_sum = 0;
    q_max = 0;
    occ_sum = 0;
    occ_max = 0;
    busy_ns = 0.0;
    lease_reclaims = 0;
    n_cores;
    cache = [||];
    c_stamp = [||];
    replica = Hashtbl.create 4;
  }

let core s = s.core

let locks s = s.locks

let served s = s.served

(* (mean, max) over the samples taken at each request pickup. *)
let queue_depth_stats s =
  if s.served = 0 then (0.0, 0)
  else (float_of_int s.q_sum /. float_of_int s.served, s.q_max)

let occupancy_stats s =
  if s.served = 0 then (0.0, 0)
  else (float_of_int s.occ_sum /. float_of_int s.served, s.occ_max)

let busy_ns s = s.busy_ns

let lease_reclaims s = s.lease_reclaims

let resp_cache_size s =
  Array.fold_left (fun n e -> if e > 0 then n + 1 else n) 0 s.cache

(* Absorption window: how long a cached response can still be useful.
   A duplicate only arrives within the requester's bounded resend
   backoff (timeout * 2^k, k <= 4, at most a handful of resends) or,
   with fault-injected duplication, one extra flight later — one lease
   is a safe upper bound on either. Past max(timeout * 32, lease) an
   entry can never absorb anything; [maybe_evict_cache] drops it.
   0.0 (hardening off and no leases) disables eviction — without
   resends the cache holds at most one entry per requester anyway. *)
let cache_ttl_ns env =
  Float.max (env.System.req_timeout_ns *. 32.0) env.System.lease_ns

(* Stamp [requester]'s entry, only while eviction can run. The stamps
   are made on first use; entries cached before then count as fresh. *)
let touch env s requester =
  if cache_ttl_ns env > 0.0 then begin
    let now = Tm2c_engine.Sim.now env.System.sim in
    if Array.length s.c_stamp = 0 then s.c_stamp <- Array.make (Array.length s.cache) now;
    s.c_stamp.(requester) <- now
  end

(* Record [code] as the answer to [req] (an awaited request only:
   fire-and-forget releases carry id 0 and are never cached). *)
let cache_put env s ~(req : System.request) code =
  if req.req_id > 0 then begin
    let requester = req.tx.m_core in
    if Array.length s.cache = 0 then s.cache <- Array.make s.n_cores 0;
    s.cache.(requester) <- cache_entry ~req_id:req.req_id code;
    let mark = env.System.cache_mark in
    if req.req_id > mark.(requester) then mark.(requester) <- req.req_id;
    touch env s requester
  end

let trace_on env = Tm2c_engine.Trace.enabled env.System.trace

let emit env ev =
  Tm2c_engine.Trace.record env.System.trace
    ~now:(Tm2c_engine.Sim.now env.System.sim) ev

(* Request-handling software costs on the service core, in core
   cycles: table lookup + bookkeeping per address, on top of the
   network layer's receive/send overheads. *)
let handle_base_cycles = 120
let per_addr_cycles = 45

let kind_addrs = function
  | System.Read_lock _ | System.Barrier_reached | System.Exclusive_acquire
  | System.Exclusive_release -> 1
  | System.Write_locks l | System.Release_reads l | System.Release_writes l ->
      List.length l

(* Static strings: allocation-free even at guarded emit sites. *)
let kind_label = function
  | System.Read_lock _ -> "read_lock"
  | System.Write_locks _ -> "write_locks"
  | System.Release_reads _ -> "release_reads"
  | System.Release_writes _ -> "release_writes"
  | System.Barrier_reached -> "barrier"
  | System.Exclusive_acquire -> "excl_acquire"
  | System.Exclusive_release -> "excl_release"

(* Deterministic request-processing cost, used by the requester-side
   phase attribution to split a lock round trip into transit, service
   and queue components. Conflict resolution (CM calls, status CASes)
   is intentionally excluded: that time lands in the queue residual. *)
let service_estimate_ns env ~n_addrs =
  Network.cycles_ns env.System.net
    (handle_base_cycles + (per_addr_cycles * n_addrs))

let reply env s ~(req : System.request) resp =
  cache_put env s ~req (resp_code resp);
  Network.send env.System.net ~src:s.core ~dst:req.tx.m_core
    (System.Resp { req_id = req.req_id; resp })

(* Opportunistic cache eviction, amortized to every 64th request so
   the scan cost stays off the per-request fast path. *)
let maybe_evict_cache env s =
  if s.served land 63 = 0 then begin
    let ttl = cache_ttl_ns env in
    if ttl > 0.0 then begin
      let now = Tm2c_engine.Sim.now env.System.sim in
      (* A [pending] entry stays: its request still waits in the
         exclusive queue, however long that takes, and its duplicates
         must keep being absorbed until the grant replaces it. *)
      for core = 0 to Array.length s.c_stamp - 1 do
        let e = s.cache.(core) in
        if e > 0 && entry_code e <> pending && now -. s.c_stamp.(core) > ttl then begin
          s.cache.(core) <- 0;
          let fc = Tm2c_noc.Fault.counters env.System.faults in
          fc.Tm2c_noc.Fault.cache_evicted <- fc.Tm2c_noc.Fault.cache_evicted + 1
        end
      done
    end
  end

(* Ship a lock-table mutation to this partition's backup (reliable
   FIFO channel, see [Network.send_reliable]). Called just before the
   corresponding reply: by the time the requester sees Granted, the
   mutation is already on the wire to the backup, so a primary crash
   can lose an in-flight grant's replication only if the grant's reply
   was lost with it — and then lease expiry clears the orphan. With
   failover disabled this sends nothing (bit-for-bit baseline). *)
let replicate env s ~(req : System.request) op =
  let fo = env.System.failover in
  match System.failover_part env req.kind with
  | Some part when fo.fo_backup.(part) <> s.core ->
      let c = Tm2c_noc.Fault.counters env.System.faults in
      c.Tm2c_noc.Fault.replicated <- c.Tm2c_noc.Fault.replicated + 1;
      Network.send_reliable env.System.net ~src:s.core ~dst:fo.fo_backup.(part)
        (System.Repl { src = s.core; part; epoch = req.epoch; op })
  | Some _ | None -> ()

(* What a lock-table mutation means, the same on the primary and on
   the backup's replica. Grants carry the holder; releases name it by
   (core, attempt) and leave a newer holder alone. *)
let apply_op table = function
  | System.Rep_read (addr, h) -> Locktable.add_reader table addr h
  | System.Rep_write (addrs, h) ->
      List.iter (fun a -> Locktable.set_writer table a h) addrs
  | System.Rep_release_reads (addrs, core, attempt) ->
      List.iter (fun a -> Locktable.remove_reader table a ~core ~attempt) addrs
  | System.Rep_release_writes (addrs, core, attempt) ->
      List.iter (fun a -> Locktable.clear_writer table a ~core ~attempt) addrs

(* Apply [op] to the live table and ship it to the backup. *)
let mutate env s ~req op =
  apply_op s.locks op;
  replicate env s ~req op

(* Outcome of trying to abort an enemy lock holder. *)
type abort_outcome =
  | Enemy_aborted  (** status CAS'd (attempt, Pending) -> (attempt, Aborted) *)
  | Enemy_stale
      (** the holder entry is dead: the enemy already aborted that
          attempt itself (its release is in flight) or moved on to a
          newer attempt — the entry can simply be revoked *)
  | Enemy_committing  (** the enemy won the race to its commit point *)

let try_abort_enemy env s (enemy : holder) =
  let expect = Status.encode ~attempt:enemy.h_attempt Status.Pending in
  let repl = Status.encode ~attempt:enemy.h_attempt Status.Aborted in
  if Atomic_reg.cas env.System.regs ~core:s.core ~reg:enemy.h_core ~expect ~repl
  then Enemy_aborted
  else begin
    let v = Atomic_reg.read env.System.regs ~core:s.core ~reg:enemy.h_core in
    let attempt, state = Status.decode v in
    if attempt > enemy.h_attempt then Enemy_stale
    else
      match state with
      | Status.Aborted -> Enemy_stale
      | Status.Committing | Status.Pending -> Enemy_committing
  end

(* Drop [h]'s lock on [addr]: its read lock, or the write lock. *)
let revoke s addr ~reader (h : holder) =
  if reader then Locktable.revoke_reader s.locks addr ~core:h.h_core
  else Locktable.revoke_writer s.locks addr

(* The requester's metadata evaluated at grant time, built here so its
   floats go straight into the flat clock record with no box between. *)
let requester_holder env s (m : cm_meta) =
  let now = System.local_now env ~core:s.core in
  {
    h_core = m.m_core;
    h_attempt = m.m_attempt;
    h_committed = m.m_committed;
    h_clock =
      {
        h_est_start_ns = now -. m.m_offset_ns;
        h_effective_ns = m.m_effective_ns;
        h_granted_ns = now;
      };
  }

(* Lease/epoch-based orphan-lock reclamation: a holder that has kept a
   lock past [env.lease_ns] is presumed dead — it crashed, or its
   release message was lost and no CM victory ever revoked the stale
   entry. The reclaim is status-CAS guarded exactly like a CM victory:
   a live holder is atomically aborted, a stale entry is simply
   dropped, and a holder past its commit point is never touched. *)
let reclaim env s ~addr ~reader (h : holder) =
  match try_abort_enemy env s h with
  | (Enemy_aborted | Enemy_stale) as outcome ->
      let c = Tm2c_noc.Fault.counters env.System.faults in
      c.Tm2c_noc.Fault.leases_reclaimed <- c.Tm2c_noc.Fault.leases_reclaimed + 1;
      s.lease_reclaims <- s.lease_reclaims + 1;
      if trace_on env then
        emit env
          (Event.Lease_reclaimed
             {
               server = s.core;
               victim = h.h_core;
               addr;
               aborted = (outcome = Enemy_aborted);
             });
      revoke s addr ~reader h
  | Enemy_committing -> ()

(* Revoke every expired holder of [addr] (other than the requester),
   the writer first, before the contention manager ever sees them —
   this is what keeps a crashed lock-holder from wedging every future
   writer under the requester-loses policies. *)
let reclaim_expired env s addr ~requester_core =
  if env.System.lease_ns > 0.0 then
    match Locktable.find s.locks addr with
    | None -> ()
    | Some e ->
        let check ~reader (h : holder) =
          if
            h.h_core <> requester_core
            && System.local_now env ~core:s.core -. h.h_clock.h_granted_ns
               > env.System.lease_ns
          then reclaim env s ~addr ~reader h
        in
        Option.iter (check ~reader:false) e.Locktable.writer;
        List.iter (check ~reader:true) e.Locktable.readers

(* Every conflict on [addr], RAW, WAW or WAR: the contention manager
   decides between the requester and the [enemies] holding the lock
   (the writer, or every other reader for WAR), and the first blocker
   is traced as the enemy. On the requester's win each enemy in turn is
   aborted and revoked — an enemy found stale is revoked all the same —
   until one is found past its commit point: the causality then flips
   to it, and enemies already aborted stay aborted (the CM keeps at
   most the highest-priority one). True when the requester may take
   the lock. *)
let contend env s (req : System.request) ~requester ~addr ~conflict enemies =
  let policy = env.System.policy in
  let decision = Cm.decide policy ~requester ~enemies in
  let blocker = Cm.first_blocker policy ~requester ~enemies in
  if trace_on env then
    emit env
      (Event.Lock_conflict
         {
           server = s.core;
           requester = req.tx.m_core;
           enemy = blocker.h_core;
           addr;
           conflict;
           requester_wins = (decision = Cm.Enemies_lose);
         });
  let lose_to (winner : holder) =
    Obs.record env.System.obs ~winner:winner.h_core ~victim:req.tx.m_core ~conflict ~addr;
    false
  in
  match decision with
  | Cm.Requester_loses -> lose_to blocker
  | Cm.Enemies_lose ->
      List.for_all
        (fun (enemy : holder) ->
          match try_abort_enemy env s enemy with
          | Enemy_aborted ->
              Obs.record env.System.obs ~winner:req.tx.m_core ~victim:enemy.h_core
                ~conflict ~addr;
              if trace_on env then
                emit env
                  (Event.Enemy_aborted
                     {
                       server = s.core;
                       winner = req.tx.m_core;
                       victim = enemy.h_core;
                       addr;
                       conflict;
                     });
              revoke s addr ~reader:(conflict = War) enemy;
              true
          | Enemy_stale ->
              revoke s addr ~reader:(conflict = War) enemy;
              true
          | Enemy_committing -> lose_to enemy)
        enemies

(* Algorithm 1: read-lock acquire. *)
let read_lock env s (req : System.request) addr =
  reclaim_expired env s addr ~requester_core:req.tx.m_core;
  let requester = requester_holder env s req.tx in
  let granted =
    match Locktable.find s.locks addr with
    | Some { Locktable.writer = Some w; _ } when w.h_core <> req.tx.m_core ->
        contend env s req ~requester ~addr ~conflict:Raw [ w ]
    | Some _ | None -> true
  in
  if granted then begin
    mutate env s ~req (System.Rep_read (addr, requester));
    reply env s ~req System.Granted
  end
  else reply env s ~req (System.Conflicted Raw)

(* Algorithm 2 over a batch: acquire each write lock in turn ([taken]
   holds this batch's grants so far); on failure, roll those back and
   report the conflict (locks acquired by earlier batches at other
   nodes are released by the aborting transaction itself). A won WAW
   conflict retries the same address, which may still have readers. *)
let write_locks env s (req : System.request) addrs =
  let core = req.tx.m_core in
  let requester = requester_holder env s req.tx in
  let rec acquire taken = function
    | [] ->
        replicate env s ~req (System.Rep_write (addrs, requester));
        reply env s ~req System.Granted
    | addr :: rest -> (
        reclaim_expired env s addr ~requester_core:core;
        match Locktable.find s.locks addr with
        | Some { Locktable.writer = Some w; _ } when w.h_core <> core ->
            if contend env s req ~requester ~addr ~conflict:Waw [ w ] then
              acquire taken (addr :: rest)
            else refuse taken Waw
        | entry ->
            let readers =
              match entry with
              | None -> []
              | Some e -> Locktable.readers_excluding e ~core
            in
            if
              List.is_empty readers
              || contend env s req ~requester ~addr ~conflict:War readers
            then begin
              Locktable.set_writer s.locks addr requester;
              acquire (addr :: taken) rest
            end
            else refuse taken War)
  and refuse taken conflict =
    List.iter
      (fun a -> Locktable.clear_writer s.locks a ~core ~attempt:req.tx.m_attempt)
      taken;
    reply env s ~req (System.Conflicted conflict)
  in
  acquire [] addrs

(* Grant the partition to the next queued irrevocable transaction once
   every lock has drained. *)
let maybe_grant_exclusive env s =
  if s.exclusive = None && Locktable.n_locked s.locks = 0 then
    match Queue.take_opt s.excl_queue with
    | Some req ->
        s.exclusive <- Some (req.System.tx.m_core, req.System.tx.m_attempt);
        reply env s ~req System.Granted
    | None -> ()

let exclusive_blocked s =
  s.exclusive <> None || not (Queue.is_empty s.excl_queue)

(* Duplicate-request absorption. Returns true when [req] was a
   duplicate and has been dealt with: the newest request gets its
   cached response replayed (its first reply may have been lost; the
   lookup is charged but the request is NOT re-executed), anything
   older is dropped. Both outcomes also cover a duplicate that arrives
   while the original still sits in the exclusive queue (cached as
   [pending] when it was queued): re-queuing it would grant the
   partition a second time, to an attempt that has already finished. *)
let absorb env s (req : System.request) =
  let requester = req.tx.m_core in
  (* Above the requester's mark no server has cached this id or a
     newer one, so the request is fresh and this server's cache row is
     not read: the per-request cost stays off the n_servers x n_cores
     table unless a duplicate is possible. *)
  let e =
    if req.req_id > 0 && req.req_id <= env.System.cache_mark.(requester)
       && requester < Array.length s.cache
    then s.cache.(requester)
    else 0
  in
  let newest = entry_req_id e in
  if newest = 0 || req.req_id > newest then false
  else begin
    let fc = Tm2c_noc.Fault.counters env.System.faults in
    fc.Tm2c_noc.Fault.absorbed <- fc.Tm2c_noc.Fault.absorbed + 1;
    Network.compute env.System.net handle_base_cycles;
    if req.req_id = newest then begin
      (* The replay proves the entry is still live: refresh its stamp
         so eviction only reaps entries past a full idle window. *)
      touch env s requester;
      let code = entry_code e in
      if code <> pending then
        Network.send env.System.net ~src:s.core ~dst:requester
          (System.Resp { req_id = req.req_id; resp = resp_of_code code })
    end;
    true
  end

(* --- Failover: epoch checks, replica application, promotion merge --- *)

(* Partition of a request that must be refused for epoch reasons:
   stamped with an epoch behind the partition's current one, or aimed
   at a server that no longer owns the partition. Both arise only for
   requests that were in flight to (or queued at) a deposed primary
   when the epoch bumped — a zombie primary that heals from a stall or
   partition must refuse them, or it could grant a lock the promoted
   backup has already granted to someone else. *)
let stale_part env s (req : System.request) =
  let fo = env.System.failover in
  match System.failover_part env req.kind with
  | Some part when req.epoch < fo.fo_epoch.(part) || fo.fo_owner.(part) <> s.core ->
      Some part
  | Some _ | None -> None

let reject_stale env s (req : System.request) ~part =
  let fo = env.System.failover in
  let fc = Tm2c_noc.Fault.counters env.System.faults in
  fc.Tm2c_noc.Fault.stale_rejections <- fc.Tm2c_noc.Fault.stale_rejections + 1;
  Network.compute env.System.net handle_base_cycles;
  if trace_on env then
    emit env
      (Event.Stale_epoch_rejected
         {
           server = s.core;
           core = req.tx.m_core;
           req_epoch = req.epoch;
           cur_epoch = fo.fo_epoch.(part);
         });
  (* Releases are fire-and-forget (req_id 0): nothing to refuse, the
     orphaned entry at the new owner is cleared by lease expiry. *)
  if req.req_id > 0 then reply env s ~req System.Stale_epoch

(* Apply one replicated mutation. Before promotion it lands in the
   per-partition replica table; a straggler arriving after this server
   was promoted and merged lands directly in the live table (the
   replica of an owned partition is dead storage). In practice the
   failover trigger — several full resend-backoff windows — dwarfs the
   replication flight time, so the replica is caught up well before
   any merge reads it. *)
let apply_replica env s ~src ~part ~op =
  let fo = env.System.failover in
  let table =
    if fo.fo_owner.(part) = s.core && fo.fo_merged.(part) then s.locks
    else
      match Hashtbl.find_opt s.replica part with
      | Some t -> t
      | None ->
          let t = Locktable.create () in
          Hashtbl.add s.replica part t;
          t
  in
  let n_addrs =
    match op with
    | System.Rep_read _ -> 1
    | System.Rep_write (addrs, _)
    | System.Rep_release_reads (addrs, _, _)
    | System.Rep_release_writes (addrs, _, _) -> List.length addrs
  in
  Network.compute env.System.net (handle_base_cycles + (per_addr_cycles * n_addrs));
  apply_op table op;
  if trace_on env then
    emit env (Event.Replica_applied { server = s.core; src; part; n_addrs })

(* Promotion: fold the partition's replica into the live table. Run
   lazily on the first post-failover request for the partition, so a
   failover nobody routes to costs nothing. Holders keep their
   original grant instants: anything whose release was lost with the
   primary expires on its original lease schedule. *)
let merge_replica env s ~part =
  let fo = env.System.failover in
  let merged = ref 0 in
  (match Hashtbl.find_opt s.replica part with
  | None -> ()
  | Some rt ->
      Locktable.iter rt (fun addr e ->
          if e.Locktable.writer <> None || e.Locktable.readers <> [] then begin
            incr merged;
            (match e.Locktable.writer with
            | Some w -> Locktable.set_writer s.locks addr w
            | None -> ());
            List.iter
              (fun r -> Locktable.add_reader s.locks addr r)
              e.Locktable.readers
          end);
      Hashtbl.remove s.replica part);
  fo.fo_merged.(part) <- true;
  Network.compute env.System.net
    (handle_base_cycles + (per_addr_cycles * !merged));
  if trace_on env then
    emit env
      (Event.Failover_done
         { server = s.core; part; epoch = fo.fo_epoch.(part); merged = !merged })

let maybe_failover env s (req : System.request) =
  let fo = env.System.failover in
  match System.failover_part env req.kind with
  | Some part when fo.fo_owner.(part) = s.core && not fo.fo_merged.(part) ->
      merge_replica env s ~part
  | Some _ | None -> ()

let handle_fresh env s (req : System.request) =
  (* Re-claim: a stall-window delay in [handle] may have parked the
     fiber, putting this continuation in a fresh dispatch. *)
  Tm2c_engine.Sim.prof_mark env.System.sim Tm2c_engine.Sim.prof_cat_dtm;
  s.served <- s.served + 1;
  maybe_evict_cache env s;
  let pickup_ns = Tm2c_engine.Sim.now env.System.sim in
  (* Sample service-queue depth (requests still waiting behind this
     one) and lock-table occupancy at pickup time. *)
  let qd = Network.pending env.System.net ~self:s.core in
  let occ = Locktable.n_locked s.locks in
  s.q_sum <- s.q_sum + qd;
  if qd > s.q_max then s.q_max <- qd;
  s.occ_sum <- s.occ_sum + occ;
  if occ > s.occ_max then s.occ_max <- occ;
  if trace_on env then
    emit env
      (Event.Service
         {
           server = s.core;
           requester = req.tx.m_core;
           req_id = req.req_id;
           kind = kind_label req.kind;
           queue_depth = qd;
           occupancy = occ;
         });
  Network.compute env.System.net
    (handle_base_cycles + (per_addr_cycles * kind_addrs req.kind));
  (match req.kind with
  | System.Read_lock addr ->
      if exclusive_blocked s then reply env s ~req (System.Conflicted Raw)
      else read_lock env s req addr
  | System.Write_locks addrs ->
      if exclusive_blocked s then reply env s ~req (System.Conflicted Waw)
      else write_locks env s req addrs
  | System.Release_reads addrs ->
      mutate env s ~req
        (System.Rep_release_reads (addrs, req.tx.m_core, req.tx.m_attempt))
  | System.Release_writes addrs ->
      mutate env s ~req
        (System.Rep_release_writes (addrs, req.tx.m_core, req.tx.m_attempt))
  | System.Exclusive_acquire ->
      if s.exclusive = None && Queue.is_empty s.excl_queue
         && Locktable.n_locked s.locks = 0
      then begin
        s.exclusive <- Some (req.tx.m_core, req.tx.m_attempt);
        reply env s ~req System.Granted
      end
      else begin
        cache_put env s ~req pending;
        Queue.push req s.excl_queue
      end
  | System.Exclusive_release ->
      (match s.exclusive with
      | Some (core, attempt) when core = req.tx.m_core && attempt = req.tx.m_attempt ->
          s.exclusive <- None
      | Some _ | None -> ())
  | System.Barrier_reached ->
      invalid_arg "Dtm.handle: barrier message routed to a DTM core");
  maybe_grant_exclusive env s;
  s.busy_ns <- s.busy_ns +. (Tm2c_engine.Sim.now env.System.sim -. pickup_ns);
  if trace_on env then
    emit env
      (Event.Service_done
         { server = s.core; requester = req.tx.m_core; req_id = req.req_id })

let handle env s (req : System.request) =
  (* Self-profiler: claim this dispatch for the DTM (no-op without an
     injected host clock; see Sim.prof_mark). *)
  Tm2c_engine.Sim.prof_mark env.System.sim Tm2c_engine.Sim.prof_cat_dtm;
  (* DS-server stall window: the server sits idle (requests queue up
     in its mailbox) until the window closes. *)
  (match
     Fault.stall_until env.System.faults ~core:s.core
       ~now:(Tm2c_engine.Sim.now env.System.sim)
   with
  | Some until ->
      Tm2c_engine.Sim.delay (until -. Tm2c_engine.Sim.now env.System.sim)
  | None -> ());
  if not (absorb env s req) then
    match stale_part env s req with
    | Some part -> reject_stale env s req ~part
    | None ->
        maybe_failover env s req;
        handle_fresh env s req

(* One activation = one blocking receive plus a batch drain of every
   message that has already arrived ([Network.recv_pending] charges the
   same per-message receive overhead as [recv], so the virtual-time
   accounting is identical to handling the backlog one wakeup at a
   time); the loop only suspends again once the mailbox is dry. *)
let service_loop env s =
  let rec loop () =
    let msg = Network.recv env.System.net ~self:s.core in
    dispatch msg
  and drain () =
    match Network.recv_pending env.System.net ~self:s.core with
    | Some msg -> dispatch msg
    | None -> loop ()
  and dispatch msg =
    (* Crash-stop ([scrash=]): once marked dead, the server dies
       silently at its next wakeup — the waking message (and anything
       queued behind it) is never handled or answered. *)
    if Fault.is_server_crashed env.System.faults ~core:s.core then ()
    else
      match msg with
      | System.Req req ->
          handle env s req;
          drain ()
      | System.Repl { src; part; epoch = _; op } ->
          apply_replica env s ~src ~part ~op;
          drain ()
      | System.Resp _ ->
          invalid_arg "Dtm.service_loop: service core received a response"
  in
  loop ()
