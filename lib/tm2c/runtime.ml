open Tm2c_engine
open Tm2c_noc
open Tm2c_memory

type deployment = Dedicated | Multitask

type config = {
  platform : Platform.t;
  total_cores : int;
  service_cores : int;
  deployment : deployment;
  policy : Cm.policy;
  wmode : Tx.wmode;
  batching : bool;
  seed : int;
}

let max_skew_ns = 3_000.0

(* The simulated address space and the allocator's bound, not an
   allocation: shared memory is backed on demand. *)
let mem_words = 1 lsl 20

let default_config =
  {
    platform = Platform.scc;
    total_cores = 48;
    service_cores = 24;
    deployment = Dedicated;
    policy = Cm.Fair_cm;
    wmode = Tx.Lazy;
    batching = true;
    seed = 42;
  }

type t = {
  cfg : config;
  sim : Sim.t;
  env : System.env;
  alloc : Alloc.t;
  app_cores : Types.core_id array;
  dtm_cores : Types.core_id array;
  servers : (Types.core_id, Dtm.server) Hashtbl.t;
  root_prng : Prng.t;
  mutable next_spare_reg : int;
  max_reg : int;
  mutable recorder : Recorder.t option;
  mutable sink_high_water : (unit -> int) option;
  mutable replicas : int;
  mutable wedged : bool;
  mutable admission : Admission.t option;
}

(* Raised by the watchdog's scheduled check (propagates out of
   [Sim.run]); [run] catches it and flags the run as wedged. *)
exception Wedged

(* Multitasking deployment: cycles of application computation that a
   service request must wait out before the non-preemptive service
   coroutine is scheduled (the Figure 2 effect). *)
let multitask_defer_cycles = 25_000

let partition_cores cfg =
  match cfg.deployment with
  | Multitask ->
      let all = Array.init cfg.total_cores (fun i -> i) in
      (all, all)
  | Dedicated ->
      if cfg.service_cores < 1 || cfg.service_cores >= cfg.total_cores then
        invalid_arg "Runtime: need 1 <= service_cores < total_cores";
      (* Spread the service cores evenly over the chip. *)
      let dtm =
        Array.init cfg.service_cores (fun k -> k * cfg.total_cores / cfg.service_cores)
      in
      let is_dtm = Array.make cfg.total_cores false in
      Array.iter (fun c -> is_dtm.(c) <- true) dtm;
      let app = ref [] in
      for c = cfg.total_cores - 1 downto 0 do
        if not is_dtm.(c) then app := c :: !app
      done;
      (Array.of_list !app, dtm)

let create cfg =
  if cfg.total_cores < 2 then invalid_arg "Runtime: need at least 2 cores";
  if cfg.total_cores > Platform.n_cores cfg.platform then
    invalid_arg "Runtime: total_cores exceeds the platform";
  let sim = Sim.create () in
  let root_prng = Prng.create ~seed:cfg.seed in
  let app_cores, dtm_cores = partition_cores cfg in
  let net = Network.create sim cfg.platform ~active:cfg.total_cores in
  let shmem = Shmem.create sim cfg.platform ~words:mem_words in
  let n_regs = Platform.n_cores cfg.platform + 8 in
  let regs = Atomic_reg.create sim cfg.platform ~count:n_regs in
  (* Per-core local-clock offsets: there is no global clock, which is
     precisely what breaks Offset-Greedy's rule (b). *)
  let skew =
    Array.init (Platform.n_cores cfg.platform) (fun _ ->
        Prng.float root_prng *. max_skew_ns)
  in
  let n_service = Array.length dtm_cores in
  (* Failover state starts inert: [fo_owner] mirrors [dtm_cores], so
     until [enable_replication] flips [fo_enabled] the routing below
     behaves exactly as a direct [dtm_cores] lookup. The backup of
     partition k is the neighboring primary (k+1 mod n): no extra
     cores, and with one replica every server backs up exactly one
     other partition. *)
  let failover =
    {
      System.fo_enabled = false;
      fo_epoch = Array.make n_service 0;
      fo_owner = Array.copy dtm_cores;
      fo_primary = Array.copy dtm_cores;
      fo_backup = Array.init n_service (fun k -> dtm_cores.((k + 1) mod n_service));
      fo_merged = Array.make n_service true;
    }
  in
  let owner_of addr = failover.System.fo_owner.(System.owner_hash addr n_service) in
  (* Per-core tables ([stats], the phase spans, [barrier_seen],
     [cache_mark], each server's response cache) cover the run's cores,
     not the platform's. [skew], the register file and [Fault] stay
     platform-wide: [skew] draws the root PRNG once per platform core,
     and spare registers keep their indices. *)
  let stats = Stats.create ~n_cores:cfg.total_cores in
  (* The fault stream is a labelled (non-mutating) split of the root:
     creating it draws nothing from [root_prng], and an empty plan
     draws nothing from the stream, so a run that never installs a
     plan is bit-for-bit identical to one that predates faults. *)
  let faults =
    Fault.create
      ~prng:(Prng.split_label root_prng ~label:"fault")
      ~n_cores:(Platform.n_cores cfg.platform) ()
  in
  Network.set_faults net (Some faults);
  let env =
    {
      System.sim;
      net;
      shmem;
      regs;
      policy = cfg.policy;
      owner_of;
      dtm_cores;
      skew;
      stats;
      serve_inline = None;
      serve_defer_cycles = 0;
      batching = cfg.batching;
      barrier_seen = Array.make cfg.total_cores 0;
      cache_mark = Array.make cfg.total_cores 0;
      trace = Trace.create ~codec:Event.ring_codec ();
      obs = Obs.create ();
      span_commit =
        Span.create ~n_cores:cfg.total_cores ~phases:Phase.names ();
      span_abort =
        Span.create ~n_cores:cfg.total_cores ~phases:Phase.names ();
      faults;
      req_timeout_ns = 0.0;
      lease_ns = 0.0;
      unsafe_skip_doom_check = false;
      failover;
      commit_lat = Sketch.create ();
      e2e_lat = Sketch.create ();
      overload = System.overload_create ();
      app_busy_until = [| 0.0 |];
    }
  in
  (* Drops and duplications happen inside the network layer, which
     cannot see the event type: route them into the trace here. *)
  Fault.on_drop faults (fun ~src ~dst ->
      if Trace.enabled env.System.trace then
        Trace.record env.System.trace ~now:(Sim.now sim)
          (Event.Msg_dropped { src; dst }));
  Fault.on_dup faults (fun ~src ~dst ->
      if Trace.enabled env.System.trace then
        Trace.record env.System.trace ~now:(Sim.now sim)
          (Event.Msg_duplicated { src; dst }));
  let alloc = Alloc.create shmem ~base:1 ~limit:(mem_words - 1) in
  {
    cfg;
    sim;
    env;
    alloc;
    app_cores;
    dtm_cores;
    servers = Hashtbl.create 64;
    root_prng;
    next_spare_reg = Platform.n_cores cfg.platform;
    max_reg = n_regs;
    recorder = None;
    sink_high_water = None;
    replicas = 0;
    wedged = false;
    admission = None;
  }

let config t = t.cfg

let env t = t.env

let sim t = t.sim

let shmem t = t.env.System.shmem

let alloc t = t.alloc

let stats t = t.env.System.stats

let trace t = t.env.System.trace

let obs t = t.env.System.obs

let enable_tracing t = Trace.enable t.env.System.trace

let faults t = t.env.System.faults

(* Install a fault plan. Call before [run] for reproducibility: the
   fault stream draws once per message only while a link fault is
   configured. *)
let set_fault_plan t plan = Fault.set_plan t.env.System.faults plan

(* Hardening knobs; both default to disabled so pristine runs take the
   exact pre-hardening code paths. [timeout_ns] is the base request
   timeout (doubling per resend, bounded); [lease_ns] is the lock
   lease after which a blocking holder is forcibly reclaimed. *)
let set_hardening t ?timeout_ns ?lease_ns () =
  (match timeout_ns with
  | Some v -> t.env.System.req_timeout_ns <- v
  | None -> ());
  match lease_ns with
  | Some v -> t.env.System.lease_ns <- v
  | None -> ()

(* Mutation hook for the opacity-oracle tests: disables every client
   poll of its own status word (see [System.env]). With it on, a
   doomed attempt can sample memory after its enemy published and
   record an inconsistent read — exactly what the opacity checker
   must reject. *)
let set_skip_doom_check t v = t.env.System.unsafe_skip_doom_check <- v

(* Replicated lock service. With [replicas = 1] every primary ships
   its lock-table mutations to the next primary over (reliable FIFO);
   clients that exhaust their resend patience bump the partition epoch
   and re-route there. [replicas = 0] is a strict no-op: no message is
   sent and no schedule perturbed. Failover additionally needs request
   timeouts (to detect the dead primary) and leases (to clear in-flight
   grants whose release died with it) — see [set_hardening]. *)
let enable_replication t ~replicas =
  match replicas with
  | 0 -> ()
  | 1 ->
      if t.cfg.deployment <> Dedicated then
        invalid_arg "Runtime.enable_replication: requires the dedicated deployment";
      if Array.length t.dtm_cores < 2 then
        invalid_arg "Runtime.enable_replication: need at least 2 service cores";
      t.replicas <- 1;
      t.env.System.failover.System.fo_enabled <- true
  | _ -> invalid_arg "Runtime.enable_replication: replicas must be 0 or 1"

let replicas t = t.replicas

(* Admission control for open-loop traffic (see Admission). Lazy
   per-core queues, so enabling it perturbs nothing until the open-loop
   driver actually offers arrivals. Call before [run]; at most once. *)
let enable_admission t ~policy ?retry_after_ns () =
  if t.admission <> None then
    invalid_arg "Runtime.enable_admission: already enabled";
  let a = Admission.create t.env ~policy ?retry_after_ns () in
  t.admission <- Some a;
  a

let admission t = t.admission

let wedged t = t.wedged

(* Liveness watchdog: every [window_ns] of virtual time, look for
   progress since the previous window. [stall_windows] consecutive flat
   windows while spawned fibers are still unfinished means the run is
   wedged (e.g. every client blocked on a dead DS server): raise out of
   [Sim.run] instead of burning virtual time to the horizon. The check
   is a [Sim.every] tick, so it never keeps an otherwise-finished
   simulation alive. *)
let enable_watchdog t ~window_ns ~stall_windows =
  if window_ns <= 0.0 || stall_windows < 1 then
    invalid_arg "Runtime.enable_watchdog: need window_ns > 0 and stall_windows >= 1";
  (* Progress is anything but a core blocked on a reply: an attempt
     resolving (a livelocking configuration aborts furiously without
     committing and must ride to its horizon), an operation completing
     (runs without transactions), or an application core computing
     during the window (one long step can outlast several windows). *)
  let env = t.env in
  let last_progress = ref (-1) in
  let last_check = ref (Sim.now t.sim) in
  let flat = ref 0 in
  Sim.every t.sim ~period:window_ns (fun now ->
      let progress =
        Stats.total_commits env.System.stats
        + Stats.total_aborts env.System.stats
        + Stats.total_ops env.System.stats
      in
      let computing = env.System.app_busy_until.(0) > !last_check in
      if progress = !last_progress && (not computing)
         && Sim.spawned t.sim > Sim.finished t.sim
      then begin
        incr flat;
        if !flat >= stall_windows then raise Wedged
      end
      else flat := 0;
      last_progress := progress;
      last_check := now;
      true)

(* Host-side store with a trace record: benchmark setup (populate)
   and weak-atomicity private-node initialization go through here so
   the checkers see every untraced-core write as an external version
   of the address instead of value corruption. *)
let host_write t addr value =
  Shmem.poke t.env.System.shmem addr value;
  let tr = t.env.System.trace in
  if Trace.enabled tr then
    Trace.record tr ~now:(Sim.now t.sim) (Event.Host_write { addr; value })

let span_commit t = t.env.System.span_commit

let span_abort t = t.env.System.span_abort

(* Turn on phase attribution: per-attempt scratch accounting in Tx,
   flushed into the committed/aborted aggregates. *)
let enable_profiling t =
  Span.enable t.env.System.span_commit;
  Span.enable t.env.System.span_abort

(* Checker-sink high-water mark: the harness installs a reader over
   whatever collector it attaches (the runtime cannot name the checker
   library without a dependency cycle). *)
let set_sink_high_water t reader = t.sink_high_water <- Some reader

let sink_high_water t =
  match t.sink_high_water with Some f -> f () | None -> 0

let recorder t = t.recorder

(* Install and start the flight recorder (see Recorder): periodic
   bounded-memory metrics snapshots on a simulated-time cadence,
   optionally streamed as OpenMetrics-style text through [out]. Trace
   events are counted through the trace's second tap, so the checker
   stack keeps exclusive ownership of the primary sink. Call before
   [run]; at most once. *)
let enable_recorder t ~window_ns ?out () =
  if t.recorder <> None then
    invalid_arg "Runtime.enable_recorder: already enabled";
  let r =
    Recorder.create ~env:t.env ~window_ns ?out
      ~servers:(fun () ->
        Array.to_list t.dtm_cores
        |> List.filter_map (fun core -> Hashtbl.find_opt t.servers core))
      ()
  in
  Recorder.set_sink_high_water r (fun () -> sink_high_water t);
  Trace.set_tap t.env.System.trace (Some (fun _now ev -> Recorder.record_event r ev));
  Recorder.start r;
  t.recorder <- Some r

(* Emit the recorder's final partial window. Idempotent, and a no-op
   when no recorder is installed: every workload-collection path calls
   it unconditionally. *)
let finish_recorder t =
  match t.recorder with Some r -> Recorder.finish r | None -> ()

(* Host-side self-profiler: inject a monotonic wall clock (seconds)
   into the scheduler — see Sim.set_host_clock. The engine never reads
   wall time itself; bin/ passes the Unix wall clock. *)
let enable_self_profile t ~clock = Sim.set_host_clock t.sim (Some clock)

let self_profile t = Sim.host_profile t.sim

(* DTM servers instantiated so far (all of them once services have
   started), in core order — the per-server queue/occupancy stats. *)
let servers t =
  Array.to_list t.dtm_cores
  |> List.filter_map (fun core -> Hashtbl.find_opt t.servers core)

let app_cores t = t.app_cores

let dtm_cores t = t.dtm_cores

let fork_prng t = Prng.split t.root_prng

(* Labelled (non-mutating) split of the root stream: derives the same
   child for the same label no matter when it is called, and draws
   nothing from the root — so subsystems created on demand (open-loop
   arrival streams) never perturb the fork sequence closed-loop
   baselines consume. *)
let labeled_prng t ~label = Prng.split_label t.root_prng ~label

let spare_reg t =
  if t.next_spare_reg >= t.max_reg then
    invalid_arg "Runtime.spare_reg: no spare registers left";
  let r = t.next_spare_reg in
  t.next_spare_reg <- r + 1;
  r

let app_ctx t core = Tx.make t.env ~core ~prng:(fork_prng t) ~wmode:t.cfg.wmode

let server_for t core =
  match Hashtbl.find_opt t.servers core with
  | Some s -> s
  | None ->
      let s = Dtm.make ~n_cores:t.cfg.total_cores ~core in
      Hashtbl.add t.servers core s;
      s

let start_services t =
  match t.cfg.deployment with
  | Dedicated ->
      Array.iter
        (fun core ->
          let server = server_for t core in
          Sim.spawn t.sim ~name:(Printf.sprintf "dtm-%d" core) (fun () ->
              Dtm.service_loop t.env server))
        t.dtm_cores;
      (* Arm the planned DS-server crash points (install the plan
         before starting services). Scheduling only happens when the
         plan has scrashes, so an empty plan stays bit-for-bit. The
         marked server dies silently at its next wakeup. *)
      List.iter
        (fun { Fault.scrash_core; scrash_at_ns } ->
          Sim.schedule t.sim ~at:scrash_at_ns (fun () ->
              Fault.mark_server_crashed t.env.System.faults ~core:scrash_core;
              if Trace.enabled t.env.System.trace then
                Trace.record t.env.System.trace ~now:(Sim.now t.sim)
                  (Event.Server_crashed { server = scrash_core })))
        (Fault.plan t.env.System.faults).Fault.scrashes
  | Multitask ->
      Array.iter (fun core -> ignore (server_for t core)) t.dtm_cores;
      t.env.System.serve_defer_cycles <- multitask_defer_cycles;
      t.env.System.serve_inline <-
        Some (fun ~self req -> Dtm.handle t.env (server_for t self) req)

let spawn_app t core f =
  Sim.spawn t.sim ~name:(Printf.sprintf "app-%d" core) f

let poll_service t ~core =
  match t.cfg.deployment with
  | Dedicated -> ()
  | Multitask ->
      let server = server_for t core in
      let rec drain () =
        match Network.try_recv t.env.System.net ~self:core with
        | Some (System.Req req) ->
            Dtm.handle t.env server req;
            drain ()
        | Some (System.Resp _) ->
            invalid_arg "Runtime.poll_service: unexpected response"
        | Some (System.Repl _) ->
            invalid_arg "Runtime.poll_service: replication is dedicated-only"
        | None -> ()
      in
      drain ()

(* On a watchdog trip the event count is lost: 0 with [wedged t] set
   signals the caller to report the wedge instead of trusting the
   run's figures. *)
let run t ?until () =
  try Sim.run t.sim ?until ()
  with Wedged ->
    t.wedged <- true;
    0

(* Privatization barrier (Section 8): each application core sends a
   barrier-reached message to every other application core and blocks
   until it has received one from each of them. Barrier messages share
   the interconnect with the DTM traffic, so under the multitasking
   deployment pending service requests are drained while waiting. *)
let barrier t ~core =
  let peers = List.filter (fun c -> c <> core) (Array.to_list t.app_cores) in
  List.iter
    (fun dst ->
      Network.send t.env.System.net ~src:core ~dst
        (System.Req
           { tx = { Types.m_core = core; m_attempt = -1; m_offset_ns = 0.0;
                    m_committed = 0; m_effective_ns = 0.0 };
             kind = System.Barrier_reached;
             req_id = 0;
             epoch = 0 }))
    peers;
  let expected = List.length peers in
  let seen = t.env.System.barrier_seen in
  (* Barrier messages that arrived while this core was inside a
     transaction were stashed by [Tx.await]. *)
  while seen.(core) < expected do
    match Network.recv t.env.System.net ~self:core with
    | System.Req { kind = System.Barrier_reached; _ } -> seen.(core) <- seen.(core) + 1
    | System.Req req -> (
        match t.env.System.serve_inline with
        | Some serve -> serve ~self:core req
        | None -> invalid_arg "Runtime.barrier: unexpected service request")
    | System.Resp _ -> invalid_arg "Runtime.barrier: unexpected response"
    | System.Repl _ -> invalid_arg "Runtime.barrier: unexpected replication"
  done;
  seen.(core) <- seen.(core) - expected
