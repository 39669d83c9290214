open Types
open Tm2c_engine
open Tm2c_noc
open Tm2c_memory

type elastic = Enone | Elastic_early | Elastic_read

type wmode = Lazy | Eager

exception Abort_exn of conflict option

(* Back-off-Retry parameters: randomized wait whose upper bound grows
   exponentially with consecutive aborts of the same transaction and
   resets when a new transaction starts (Section 4.2). *)
let backoff_initial_ns = 2_500.0
let backoff_cap_ns = 1_000_000.0

type ctx = {
  env : System.env;
  core : core_id;
  prng : Prng.t;
  wmode : wmode;
  mutable elastic : elastic;
  mutable attempt : int;
  mutable committed : int;
  mutable effective_ns : float;
  mutable tx_start : float;
  mutable in_tx : bool;
  mutable irrevocable : bool;
  reads : Readset.t;  (* read-locked addresses and the values read *)
  write_buf : (addr, int) Hashtbl.t;
  mutable write_order : addr list;  (* reversed program order *)
  mutable writes_held : addr list;
  mutable early_window : addr list;  (* most recent first, length <= 2 *)
  mutable eread_window : (addr * int) list;  (* most recent first, <= 2 *)
  mutable req_counter : int;
  mutable backoff_ns : float;
  stats : Stats.core;
  (* Phase attribution scratch (see Phase / Span): the current
     attempt's per-phase ns, flushed into the env's committed or
     aborted aggregate when the attempt's outcome is known. *)
  ph_scratch : float array;
  mutable ph_mark : float;  (* last charged boundary, Sim.now *)
  mutable ph_attempt_start : float;
  (* The open round trip of [await]: the server it is routed to, the
     silent timeouts and epoch refusals so far, and whether an inline
     service request has paid the coroutine-scheduling delay. *)
  mutable aw_dst : core_id;
  mutable aw_resends : int;
  mutable aw_deferred : bool;
}

let make env ~core ~prng ~wmode =
  {
    env;
    core;
    prng;
    wmode;
    elastic = Enone;
    attempt = 0;
    committed = 0;
    effective_ns = 0.0;
    tx_start = 0.0;
    in_tx = false;
    irrevocable = false;
    reads = Readset.create ();
    write_buf = Hashtbl.create 16;
    write_order = [];
    writes_held = [];
    early_window = [];
    eread_window = [];
    req_counter = 0;
    backoff_ns = backoff_initial_ns;
    stats = Stats.core env.System.stats core;
    ph_scratch = Array.make Phase.n 0.0;
    ph_mark = 0.0;
    ph_attempt_start = 0.0;
    aw_dst = 0;
    aw_resends = 0;
    aw_deferred = false;
  }

let core ctx = ctx.core

let env ctx = ctx.env

(* Lifecycle trace events; guard construction so that untraced runs
   allocate nothing. *)
let trace_on ctx = Trace.enabled ctx.env.System.trace

let emit ctx ev =
  Trace.record ctx.env.System.trace ~now:(Sim.now ctx.env.System.sim) ev

let stats ctx = ctx.stats

let committed ctx = ctx.committed

(* Phase attribution (Span): guarded like tracing — one boolean read
   and no float work when profiling is off. Durations use [Sim.now]
   throughout (the per-core skew is constant, so local durations are
   identical), and the scratch protocol telescopes: every segment
   between [ph_mark] boundaries is charged to exactly one phase, so
   the flushed phases sum to the attempt's duration. *)
let prof_on ctx = Span.enabled ctx.env.System.span_commit

let sim_now ctx = Sim.now ctx.env.System.sim

let ph_charge ctx phase =
  let now = sim_now ctx in
  ctx.ph_scratch.(phase) <- ctx.ph_scratch.(phase) +. (now -. ctx.ph_mark);
  ctx.ph_mark <- now

(* Split a read-lock round trip into transit / service / queue using
   the platform's deterministic costs. Transit covers both flights
   plus the four software send/receive overheads; service is the DTM
   core's request-processing cycles; the queue residual absorbs
   waiting behind other requests, conflict-resolution work at the
   server, and float rounding. Components are clamped so they always
   sum to the measured round trip. *)
let ph_charge_read ctx ~dst t0 =
  let now = sim_now ctx in
  let rt = now -. t0 in
  let net = ctx.env.System.net in
  let p = Network.platform net in
  let transit =
    (2.0 *. (Platform.send_overhead_ns p +. Platform.recv_overhead_ns p))
    +. (2.0 *. Network.flight_ns net ~src:ctx.core ~dst)
  in
  let transit = Float.min transit rt in
  let service =
    Float.min (Dtm.service_estimate_ns ctx.env ~n_addrs:1) (rt -. transit)
  in
  let queue = rt -. transit -. service in
  ctx.ph_scratch.(Phase.read_transit) <- ctx.ph_scratch.(Phase.read_transit) +. transit;
  ctx.ph_scratch.(Phase.read_service) <- ctx.ph_scratch.(Phase.read_service) +. service;
  ctx.ph_scratch.(Phase.read_queue) <- ctx.ph_scratch.(Phase.read_queue) +. queue;
  ctx.ph_mark <- now

let local_now ctx = System.local_now ctx.env ~core:ctx.core

let compute ctx cycles = System.app_compute ctx.env cycles

let meta ctx =
  {
    m_core = ctx.core;
    m_attempt = ctx.attempt;
    m_offset_ns = local_now ctx -. ctx.tx_start;
    m_committed = ctx.committed;
    m_effective_ns = ctx.effective_ns;
  }

(* After each timeout-triggered resend the timeout doubles, bounded by
   this factor over the configured base. *)
let resend_backoff_factor = 16.0

(* Failover trigger: this many consecutive silent timeouts on one
   request and the client declares the partition's primary dead —
   bumps the epoch and re-routes to the backup. Three full (doubling)
   windows comfortably outlast any stall a live server recovers from
   within one base timeout, and — together with the backoff — give the
   reliable replication channel ample time to drain before the backup
   is promoted (see DESIGN.md "Failover"). *)
let failover_resend_threshold = 3

(* Receive until our response arrives; under the multitasking
   deployment, service requests arriving in the meantime are handled
   inline (the libtask coroutine switch of Section 3.1). When request
   timeouts are enabled ([env.req_timeout_ns] > 0), a silent wait
   resends the same request — same sequence number, so the server
   absorbs duplicates and a late original reply is simply dropped by
   the [req_id] match below. With failover enabled, enough silent
   timeouts bump the partition's epoch and re-route to the backup; a
   [Stale_epoch] refusal (we raced another client's bump, or a healed
   zombie primary refused us) likewise re-routes and retries — neither
   is ever surfaced to the caller. The open round trip's mutable state
   ([aw_dst], [aw_resends], [aw_deferred]) lives in [ctx], and the
   loop is a top-level function taking the request's identity as
   arguments, so a wait allocates nothing that outlives a message.

   [resend] routes to the partition's current owner (a bump — ours or
   a peer's — may have moved it) and re-stamps the epoch. *)
let resend ctx kind req_id =
  (match System.failover_part ctx.env kind with
  | Some p -> ctx.aw_dst <- ctx.env.System.failover.fo_owner.(p)
  | None -> ());
  if trace_on ctx then
    emit ctx
      (Event.Req_resent
         { core = ctx.core; server = ctx.aw_dst; req_id; nth = ctx.aw_resends });
  Network.send ctx.env.System.net ~src:ctx.core ~dst:ctx.aw_dst
    (System.Req { tx = meta ctx; kind; req_id; epoch = System.epoch_for ctx.env kind })

let rec await_loop ctx kind req_id timeout_ns =
  if timeout_ns > 0.0 then
    match Network.recv_timeout ctx.env.System.net ~self:ctx.core ~timeout_ns with
    | Some msg -> await_msg ctx kind req_id timeout_ns msg
    | None ->
        ctx.aw_resends <- ctx.aw_resends + 1;
        let c = Fault.counters ctx.env.System.faults in
        c.Fault.resends <- c.Fault.resends + 1;
        (match System.failover_part ctx.env kind with
        | Some p when ctx.aw_resends >= failover_resend_threshold ->
            System.bump_epoch ctx.env ~part:p ~by:ctx.core
        | Some _ | None -> ());
        resend ctx kind req_id;
        await_loop ctx kind req_id
          (Float.min (timeout_ns *. 2.0)
             (ctx.env.System.req_timeout_ns *. resend_backoff_factor))
  else
    await_msg ctx kind req_id timeout_ns
      (Network.recv ctx.env.System.net ~self:ctx.core)

and await_msg ctx kind req_id timeout_ns = function
  | System.Resp r when r.req_id = req_id -> (
      match r.resp with
      | System.Stale_epoch ->
          (* Refused for epoch reasons: the partition has a new owner
             (or we are behind on the epoch). Re-route and retry the
             same request transparently. *)
          ctx.aw_resends <- ctx.aw_resends + 1;
          resend ctx kind req_id;
          await_loop ctx kind req_id timeout_ns
      | resp -> resp)
  | System.Resp _ -> await_loop ctx kind req_id timeout_ns
  | System.Req { kind = System.Barrier_reached; _ } ->
      (* A peer reached a privatization barrier while we are still
         inside a transaction: stash it for our own barrier call. *)
      ctx.env.System.barrier_seen.(ctx.core) <-
        ctx.env.System.barrier_seen.(ctx.core) + 1;
      await_loop ctx kind req_id timeout_ns
  | System.Req r -> (
      match ctx.env.System.serve_inline with
      | Some serve ->
          if not ctx.aw_deferred then begin
            ctx.aw_deferred <- true;
            Network.compute ctx.env.System.net ctx.env.System.serve_defer_cycles
          end;
          serve ~self:ctx.core r;
          await_loop ctx kind req_id timeout_ns
      | None -> invalid_arg "Tx.await: application core received a service request")
  | System.Repl _ ->
      invalid_arg "Tx.await: application core received replication traffic"

let await ctx ~dst ~kind req_id =
  (* Under multitasking, the first service request interrupting this
     wait pays the coroutine-scheduling delay (the application task's
     current computation slice must complete first — Figure 2);
     requests already queued behind it are then served in the same
     scheduling slot. *)
  ctx.aw_deferred <- false;
  ctx.aw_resends <- 0;
  ctx.aw_dst <- dst;
  await_loop ctx kind req_id ctx.env.System.req_timeout_ns

let send_request ctx ~dst kind =
  ctx.req_counter <- ctx.req_counter + 1;
  let req_id = ctx.req_counter in
  if trace_on ctx then
    emit ctx
      (Event.Req_sent
         {
           core = ctx.core;
           server = dst;
           req_id;
           kind = Dtm.kind_label kind;
           n_addrs = Dtm.kind_addrs kind;
         });
  Network.send ctx.env.System.net ~src:ctx.core ~dst
    (System.Req
       { tx = meta ctx; kind; req_id; epoch = System.epoch_for ctx.env kind });
  await ctx ~dst ~kind req_id

(* Releases are fire-and-forget. *)
let send_release ctx ~dst kind =
  Network.send ctx.env.System.net ~src:ctx.core ~dst
    (System.Req
       { tx = meta ctx; kind; req_id = 0; epoch = System.epoch_for ctx.env kind })

(* Write sets are a handful of addresses, so assoc-list grouping
   beats building (and collecting) a Hashtbl per commit. Groups
   accumulate each owner's addresses in reverse traversal order,
   exactly as the former hash-based grouping did. *)
let rec add_group groups owner a =
  match groups with
  | [] -> [ (owner, [ a ]) ]
  | (o, g) :: rest when o = owner -> (o, a :: g) :: rest
  | p :: rest -> p :: add_group rest owner a

let add_by_owner ctx groups a = add_group groups (ctx.env.System.owner_of a) a

let sort_groups groups = List.sort (fun (a, _) (b, _) -> compare a b) groups

let group_by_owner ctx addrs = sort_groups (List.fold_left (add_by_owner ctx) [] addrs)

(* Without write-lock batching every address travels in its own
   message (the Section 3.3 ablation). *)
let commit_groups ctx addrs =
  if ctx.env.System.batching then group_by_owner ctx addrs
  else List.map (fun a -> (ctx.env.System.owner_of a, [ a ])) addrs

let status_encode ctx state = Status.encode ~attempt:ctx.attempt state

(* Crash-stop fault injection, polled at operation boundaries (attempt
   start, every lock round trip): the core dies by raising
   [Sim.Stopped], so the fiber unwinds without sending any release —
   its status word stays Pending and its locks are orphaned until
   lease reclamation revokes them. A crash never lands inside the
   commit's publish/write-back (no boundary there), so the write set is
   all-or-nothing. *)
let check_crash ctx =
  let f = ctx.env.System.faults in
  if Fault.crash_due f ~core:ctx.core ~now:(sim_now ctx) then begin
    Fault.mark_crashed f ~core:ctx.core;
    if trace_on ctx then
      emit ctx
        (Event.Core_crashed
           { core = ctx.core; attempt = (if ctx.in_tx then ctx.attempt else -1) });
    raise Sim.Stopped
  end

(* Poll our status word: a remote contention manager may have aborted
   this attempt. Gated by the test-only mutation hook that
   reintroduces the stale-read window for the opacity oracle tests. *)
let check_doomed ctx =
  if not ctx.env.System.unsafe_skip_doom_check then
    let v = Atomic_reg.read ctx.env.System.regs ~core:ctx.core ~reg:ctx.core in
    if v = status_encode ctx Status.Aborted then raise (Abort_exn None)

let check_status ctx =
  check_crash ctx;
  check_doomed ctx

let begin_attempt ctx =
  check_crash ctx;
  Readset.clear ctx.reads;
  Hashtbl.reset ctx.write_buf;
  ctx.write_order <- [];
  ctx.writes_held <- [];
  ctx.early_window <- [];
  ctx.eread_window <- [];
  Atomic_reg.write ctx.env.System.regs ~core:ctx.core ~reg:ctx.core
    (status_encode ctx Status.Pending);
  ctx.tx_start <- local_now ctx;
  ctx.in_tx <- true;
  if prof_on ctx then begin
    Array.fill ctx.ph_scratch 0 Phase.n 0.0;
    ctx.ph_attempt_start <- sim_now ctx;
    ctx.ph_mark <- ctx.ph_attempt_start
  end;
  if trace_on ctx then
    emit ctx
      (Event.Tx_start
         { core = ctx.core; attempt = ctx.attempt; elastic = ctx.elastic <> Enone })

let release_all ctx =
  List.iter
    (fun (dst, addrs) -> send_release ctx ~dst (System.Release_writes addrs))
    (group_by_owner ctx ctx.writes_held);
  List.iter
    (fun (dst, addrs) -> send_release ctx ~dst (System.Release_reads addrs))
    (sort_groups (Readset.fold_newest (add_by_owner ctx) [] ctx.reads));
  ctx.writes_held <- [];
  Readset.clear ctx.reads

(* Algorithm 2's client side: one write-lock round trip for [addrs],
   all owned by [dst], the eager store's single address or one commit
   batch. The caller polls its status first. *)
let acquire_writes ctx ~dst addrs =
  match send_request ctx ~dst (System.Write_locks addrs) with
  | System.Granted ->
      if prof_on ctx then ph_charge ctx Phase.commit_acquire;
      if trace_on ctx then emit ctx (Event.Wlock_granted { core = ctx.core; addrs });
      ctx.writes_held <- addrs @ ctx.writes_held
  | System.Conflicted c ->
      if prof_on ctx then ph_charge ctx Phase.commit_acquire;
      raise (Abort_exn (Some c))
  | System.Stale_epoch -> assert false (* consumed inside [await] *)

(* Transactional read: Algorithm 4, plus the two elastic variants. *)
let locked_read ctx addr =
  check_status ctx;
  let dst = ctx.env.System.owner_of addr in
  let prof = prof_on ctx in
  if prof then ph_charge ctx Phase.compute;
  let t0 = if prof then sim_now ctx else 0.0 in
  match send_request ctx ~dst (System.Read_lock addr) with
  | System.Granted ->
      if prof then ph_charge_read ctx ~dst t0;
      (* A contention-manager CAS may have doomed this attempt while
         the grant was in flight — the winner then publishes before we
         wake, so sampling now would mix pre- and post-publish values
         across this attempt's reads. Re-check in the same simulation
         slice as the sample (no suspension in between), so a doomed
         attempt never records a granted read it could not have taken
         under opacity. *)
      (try check_doomed ctx
       with Abort_exn _ as e ->
         if trace_on ctx then
           emit ctx
             (Event.Tx_read { core = ctx.core; addr; granted = false; value = 0 });
         raise e);
      let v = Shmem.read ctx.env.System.shmem ~core:ctx.core addr in
      (* Emitted after the sample so the event timestamp is the
         instant the value was actually observed — the oracle's
         versioned replay depends on it. *)
      if trace_on ctx then
        emit ctx (Event.Tx_read { core = ctx.core; addr; granted = true; value = v });
      Readset.add ctx.reads addr v;
      v
  | System.Conflicted c ->
      if prof then ph_charge_read ctx ~dst t0;
      if trace_on ctx then
        emit ctx (Event.Tx_read { core = ctx.core; addr; granted = false; value = 0 });
      raise (Abort_exn (Some c))
  | System.Stale_epoch -> assert false (* consumed inside [await] *)

let elastic_early_read ctx addr =
  let v = locked_read ctx addr in
  ctx.early_window <- addr :: ctx.early_window;
  (match ctx.early_window with
  | [ a; b; oldest ] ->
      ctx.early_window <- [ a; b ];
      (* Early release: one extra message per discarded read entry
         (the cost that limits elastic-early's speedup, Fig. 7a). *)
      send_release ctx ~dst:(ctx.env.System.owner_of oldest)
        (System.Release_reads [ oldest ]);
      if trace_on ctx then
        emit ctx (Event.Rlock_released { core = ctx.core; addr = oldest });
      Readset.remove ctx.reads oldest
  | _ -> ());
  v

let elastic_read ctx addr =
  let v = Shmem.read ctx.env.System.shmem ~core:ctx.core addr in
  (match ctx.eread_window with
  | (prev, prev_v) :: _ ->
      (* Validate the preceding read: if a committed update changed
         it, the two consecutive reads are not atomic — abort. *)
      let cur = Shmem.read ctx.env.System.shmem ~core:ctx.core prev in
      if cur <> prev_v then raise (Abort_exn (Some War))
  | [] -> ());
  ctx.eread_window <-
    (match ctx.eread_window with
    | first :: _ -> [ (addr, v); first ]
    | [] -> [ (addr, v) ]);
  v

let read ctx addr =
  if not ctx.in_tx then invalid_arg "Tx.read: outside atomic";
  ctx.stats.Stats.tx_reads <- ctx.stats.Stats.tx_reads + 1;
  if ctx.irrevocable then Shmem.read ctx.env.System.shmem ~core:ctx.core addr
  else
  match Hashtbl.find_opt ctx.write_buf addr with
  | Some v -> v
  | None -> (
      match Readset.find_opt ctx.reads addr with
      | Some v -> v
      | None -> (
          let in_prefix = ctx.write_order = [] in
          match ctx.elastic with
          | Elastic_read when in_prefix -> elastic_read ctx addr
          | Elastic_early when in_prefix -> elastic_early_read ctx addr
          | Enone | Elastic_read | Elastic_early -> locked_read ctx addr))

let write ctx addr v =
  if not ctx.in_tx then invalid_arg "Tx.write: outside atomic";
  ctx.stats.Stats.tx_writes <- ctx.stats.Stats.tx_writes + 1;
  if ctx.irrevocable then Shmem.write ctx.env.System.shmem ~core:ctx.core addr v
  else begin
  let fresh = not (Hashtbl.mem ctx.write_buf addr) in
  Hashtbl.replace ctx.write_buf addr v;
  (* Every store is traced (not just the first per address): the last
     Tx_write per address carries the value the commit publishes. *)
  if trace_on ctx then emit ctx (Event.Tx_write { core = ctx.core; addr; value = v });
  if fresh then begin
    ctx.write_order <- addr :: ctx.write_order;
    if ctx.wmode = Eager && not (List.mem addr ctx.writes_held) then begin
      (* The status poll is part of the store's compute phase. *)
      check_status ctx;
      if prof_on ctx then ph_charge ctx Phase.compute;
      acquire_writes ctx ~dst:(ctx.env.System.owner_of addr) [ addr ]
    end
  end
  end

let abort _ctx = raise (Abort_exn None)

(* A committed attempt, transactional or irrevocable: its sample in
   the always-on commit-latency sketch (the elapsed value Tx_committed
   carries), the effective time FairCM ranks by, and rule (c) of
   Property 1 — the core's next transaction has a strictly lower
   priority, and bumping the attempt also invalidates any in-flight
   revocation against the finished one. An irrevocable transaction
   traced no start, so it traces no commit either; it runs once, so
   its lifespan is this attempt ([atomic] accounts for its own). *)
let count_commit ctx =
  let elapsed = local_now ctx -. ctx.tx_start in
  Sketch.add ctx.env.System.commit_lat elapsed;
  if ctx.irrevocable then
    ctx.stats.Stats.lifespan_ns <- ctx.stats.Stats.lifespan_ns +. elapsed
  else if trace_on ctx then
    emit ctx
      (Event.Tx_committed
         { core = ctx.core; attempt = ctx.attempt; duration_ns = elapsed });
  ctx.effective_ns <- ctx.effective_ns +. elapsed;
  ctx.stats.Stats.effective_ns <- ctx.stats.Stats.effective_ns +. elapsed;
  ctx.committed <- ctx.committed + 1;
  ctx.stats.Stats.commits <- ctx.stats.Stats.commits + 1;
  ctx.attempt <- ctx.attempt + 1;
  ctx.in_tx <- false

(* Algorithm 3: acquire the missing write locks (batched per node),
   switch the status word to Committing — the linearization point —
   validate any remaining elastic-read window, persist the write set,
   release every lock and update the metadata. *)
let commit ctx =
  if prof_on ctx then ph_charge ctx Phase.compute;
  if trace_on ctx then
    emit ctx
      (Event.Tx_commit_begin
         {
           core = ctx.core;
           attempt = ctx.attempt;
           n_writes = List.length ctx.write_order;
         });
  let to_acquire =
    List.filter (fun a -> not (List.mem a ctx.writes_held)) (List.rev ctx.write_order)
  in
  List.iter
    (fun (dst, addrs) ->
      check_status ctx;
      acquire_writes ctx ~dst addrs)
    (commit_groups ctx to_acquire);
  let committing =
    Atomic_reg.cas ctx.env.System.regs ~core:ctx.core ~reg:ctx.core
      ~expect:(status_encode ctx Status.Pending)
      ~repl:(status_encode ctx Status.Committing)
  in
  if not committing then raise (Abort_exn None);
  List.iter
    (fun (a, v) ->
      if Shmem.read ctx.env.System.shmem ~core:ctx.core a <> v then
        raise (Abort_exn (Some War)))
    ctx.eread_window;
  (* The publish event is stamped here, immediately before the burst:
     [write_burst] applies the data at call time and charges latency
     afterwards, so this timestamp is the exact instant the write set
     becomes visible to other cores. *)
  if trace_on ctx then
    emit ctx
      (Event.Tx_publish
         {
           core = ctx.core;
           attempt = ctx.attempt;
           n_writes = List.length ctx.write_order;
         });
  (* Atomic in simulated time: a run horizon must not be able to
     freeze this fiber with the write set half applied. *)
  Shmem.write_burst ctx.env.System.shmem ~core:ctx.core
    (List.rev_map (fun a -> (a, Hashtbl.find ctx.write_buf a)) ctx.write_order);
  release_all ctx;
  (* Everything from the status CAS through write-back and lock
     release is one phase; flushing here makes the committed phase
     sums telescope to exactly this attempt's duration. *)
  if prof_on ctx then begin
    ph_charge ctx Phase.writeback;
    Span.flush ctx.env.System.span_commit ~core:ctx.core ctx.ph_scratch
      ~total:(sim_now ctx -. ctx.ph_attempt_start)
  end;
  count_commit ctx

let record_abort ctx = function
  | Some Raw -> ctx.stats.Stats.aborts_raw <- ctx.stats.Stats.aborts_raw + 1
  | Some Waw -> ctx.stats.Stats.aborts_waw <- ctx.stats.Stats.aborts_waw + 1
  | Some War -> ctx.stats.Stats.aborts_war <- ctx.stats.Stats.aborts_war + 1
  | None -> ctx.stats.Stats.aborts_status <- ctx.stats.Stats.aborts_status + 1

let abort_cleanup ctx conflict =
  record_abort ctx conflict;
  if trace_on ctx then
    emit ctx (Event.Tx_aborted { core = ctx.core; attempt = ctx.attempt; conflict });
  release_all ctx;
  (* The unwind — release messages and whatever ran since the last
     boundary — is charged to writeback; the backoff below happens
     between attempts, so it is added to the aborted aggregate
     directly rather than through the attempt scratch. *)
  if prof_on ctx then begin
    ph_charge ctx Phase.writeback;
    Span.flush ctx.env.System.span_abort ~core:ctx.core ctx.ph_scratch
      ~total:(sim_now ctx -. ctx.ph_attempt_start)
  end;
  ctx.attempt <- ctx.attempt + 1;
  ctx.in_tx <- false;
  if Cm.uses_backoff ctx.env.System.policy then begin
    let d = Prng.float ctx.prng *. ctx.backoff_ns in
    Sim.delay d;
    if prof_on ctx then
      Span.add ctx.env.System.span_abort ~core:ctx.core ~phase:Phase.backoff d;
    ctx.backoff_ns <- Float.min (ctx.backoff_ns *. 2.0) backoff_cap_ns
  end

(* Irrevocable transactions: acquire exclusive access to every DTM
   partition (ascending node order prevents deadlock between two
   irrevocable transactions), run pessimistically with direct memory
   accesses, release. Never aborts, so the body runs exactly once. *)
let irrevocable ctx f =
  if ctx.in_tx then invalid_arg "Tx.irrevocable: nested transactions are not supported";
  ctx.in_tx <- true;
  ctx.irrevocable <- true;
  ctx.tx_start <- local_now ctx;
  Array.iter
    (fun dst ->
      match send_request ctx ~dst System.Exclusive_acquire with
      | System.Granted -> ()
      | System.Conflicted _ | System.Stale_epoch ->
          invalid_arg "Tx.irrevocable: exclusive acquisition refused")
    ctx.env.System.dtm_cores;
  let v = f () in
  Array.iter
    (fun dst -> send_release ctx ~dst System.Exclusive_release)
    ctx.env.System.dtm_cores;
  count_commit ctx;
  ctx.irrevocable <- false;
  v

let atomic ?(elastic = Enone) ctx f =
  if ctx.in_tx then invalid_arg "Tx.atomic: nested transactions are not supported";
  ctx.elastic <- elastic;
  ctx.backoff_ns <- backoff_initial_ns;
  let lifespan_start = local_now ctx in
  let attempts = ref 0 in
  let rec attempt_once () =
    incr attempts;
    begin_attempt ctx;
    match
      let v = f () in
      commit ctx;
      v
    with
    | v -> v
    | exception Abort_exn conflict ->
        abort_cleanup ctx conflict;
        attempt_once ()
  in
  let v = attempt_once () in
  ctx.stats.Stats.lifespan_ns <-
    ctx.stats.Stats.lifespan_ns +. (local_now ctx -. lifespan_start);
  if !attempts > ctx.stats.Stats.max_attempts then
    ctx.stats.Stats.max_attempts <- !attempts;
  v
