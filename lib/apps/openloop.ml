open Tm2c_core
open Tm2c_engine

(* Open-loop client population: arrivals keep coming no matter how the
   system is doing. Each application core gets an independent Poisson
   (or bursty, flash-crowd) arrival process over a Zipf-skewed key
   space and a two-tenant mix — short read/write transactions and
   elastic read-only scans. Arrivals go through the runtime's
   admission queues ({!Tm2c_core.Admission}); shed or timed-out
   requests are retried by the client against a bounded retry budget,
   which is exactly the knob separating graceful degradation from a
   metastable retry storm. *)

type arrival =
  | Poisson of { rate_per_ms : float }
  | Bursty of {
      base_per_ms : float;
      burst_per_ms : float;
      burst_start_ns : float;
      burst_end_ns : float;
    }

type config = {
  arrival : arrival;
  window_ns : float;
  drain_ns : float;
  zipf_s : float;
  key_range : int;
  scan_pct : int;
  scan_len : int;
  client_deadline_ns : float;
  client_timeout_ns : float;
  retry_budget : int;
  policy : Admission.policy;
}

let default =
  {
    arrival = Poisson { rate_per_ms = 20.0 };
    window_ns = 2e6;
    drain_ns = 5e5;
    zipf_s = 0.9;
    key_range = 1024;
    scan_pct = 10;
    scan_len = 16;
    client_deadline_ns = 300_000.0;
    client_timeout_ns = 450_000.0;
    retry_budget = 3;
    policy = Admission.Reject { capacity = 64 };
  }

let validate cfg =
  if cfg.window_ns <= 0.0 then invalid_arg "Openloop: window_ns must be > 0";
  if cfg.drain_ns < 0.0 then invalid_arg "Openloop: drain_ns must be >= 0";
  if cfg.zipf_s < 0.0 then invalid_arg "Openloop: zipf_s must be >= 0";
  if cfg.key_range < 1 then invalid_arg "Openloop: key_range must be >= 1";
  if cfg.scan_pct < 0 || cfg.scan_pct > 100 then
    invalid_arg "Openloop: scan_pct must be in [0, 100]";
  if cfg.scan_len < 1 then invalid_arg "Openloop: scan_len must be >= 1"

(* --- Arrival process ------------------------------------------------- *)

let rate_at arrival ~now_ns =
  match arrival with
  | Poisson { rate_per_ms } -> rate_per_ms
  | Bursty { base_per_ms; burst_per_ms; burst_start_ns; burst_end_ns } ->
      if now_ns >= burst_start_ns && now_ns < burst_end_ns then burst_per_ms
      else base_per_ms

(* Exponential interarrival by inverse CDF; one [Prng.float] per draw,
   so [arrival_times] below consumes exactly the same stream as the
   live generator. *)
let interarrival_ns prng ~rate_per_ms =
  let u = Prng.float prng in
  if rate_per_ms <= 0.0 then Float.infinity
  else
    let rate_per_ns = rate_per_ms /. 1e6 in
    -.Float.log (1.0 -. u) /. rate_per_ns

(* The full arrival stream as pure data — the reference the generator
   determinism tests compare against. For [Bursty], each gap is drawn
   at the rate in force when it starts (a gap straddling a phase
   boundary is not re-scaled: an approximation, but a deterministic
   one, and identical in the live driver). *)
let arrival_times arrival prng ~until_ns =
  let rec go now acc =
    let dt = interarrival_ns prng ~rate_per_ms:(rate_at arrival ~now_ns:now) in
    let at = now +. dt in
    if at > until_ns then List.rev acc else go at (at :: acc)
  in
  go 0.0 []

(* --- Zipf key skew --------------------------------------------------- *)

(* CDF table over ranks 1..n with weight 1/k^s; [zipf_draw] inverts it
   by binary search, one [Prng.float] per draw. *)
let zipf_cdf ~s ~n =
  if n < 1 then invalid_arg "Openloop.zipf_cdf: need n >= 1";
  let cdf = Array.make n 0.0 in
  let total = ref 0.0 in
  for k = 1 to n do
    total := !total +. (1.0 /. Float.pow (float_of_int k) s);
    cdf.(k - 1) <- !total
  done;
  for i = 0 to n - 1 do
    cdf.(i) <- cdf.(i) /. !total
  done;
  cdf.(n - 1) <- 1.0;
  cdf

let zipf_draw prng cdf =
  let u = Prng.float prng in
  (* Smallest index with u < cdf.(i). *)
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if u < cdf.(mid) then hi := mid else lo := mid + 1
  done;
  !lo

(* --- The driver ------------------------------------------------------ *)

(* One logical request, as the client sees it: it stays open across
   shed-retries and timeout resubmissions until its first completion
   ([l_done]), its retry budget runs out ([l_failed]), or the run
   stops. Queue entries name it by its slot in the driver's request
   table (the admission payload), so an execution can tell first
   completion from retry-manufactured duplicate work. [l_queued]
   counts the admitted entries that still name the slot — queued, or
   taken by a worker that has not finished with it. *)
type lreq = {
  l_core : Types.core_id;
  l_tenant : int;
  l_key : int;
  l_arrival_ns : float;
  l_slot : int;
  mutable l_done : bool;
  mutable l_failed : bool;
  mutable l_retries : int;
  mutable l_queued : int;
}

let drive rt cfg =
  validate cfg;
  let adm =
    match Runtime.admission rt with
    | Some a -> a
    | None -> Runtime.enable_admission rt ~policy:cfg.policy ()
  in
  Runtime.start_services rt;
  let sim = Runtime.sim rt in
  let stats = Runtime.stats rt in
  let cores = Runtime.app_cores rt in
  (* Shared table, populated host-side to ~50% occupancy. *)
  let ht = Hashtable.create rt ~n_buckets:(max 64 (cfg.key_range / 4)) in
  Hashtable.populate ht
    (Runtime.labeled_prng rt ~label:"openloop-populate")
    ~n:(cfg.key_range / 2) ~key_range:cfg.key_range;
  let cdf = zipf_cdf ~s:cfg.zipf_s ~n:cfg.key_range in
  (* Request table: a slot per request that is open or still named by
     an admission entry, so it is sized by the window's open requests,
     not by every request the run has made. A slot returns to the
     free stack once its request is closed and no entry names it. *)
  let dummy_req =
    {
      l_core = -1;
      l_tenant = 0;
      l_key = 0;
      l_arrival_ns = 0.0;
      l_slot = -1;
      l_done = true;
      l_failed = false;
      l_retries = 0;
      l_queued = 0;
    }
  in
  let reqs = ref [||] in
  let free = ref [||] in
  let free_top = ref 0 in
  let alloc_slot () =
    if !free_top = 0 then begin
      let old = Array.length !reqs in
      let ncap = if old = 0 then 256 else 2 * old in
      let bigger = Array.make ncap dummy_req in
      Array.blit !reqs 0 bigger 0 old;
      reqs := bigger;
      let nf = Array.make ncap 0 in
      for i = 0 to ncap - old - 1 do
        nf.(i) <- old + i
      done;
      free := nf;
      free_top := ncap - old
    end;
    decr free_top;
    !free.(!free_top)
  in
  (* Called when a request closes and when an entry naming it is
     finished or expires. It frees a slot once: after that no entry
     names the request, and its timers see it closed. *)
  let release l =
    if (l.l_done || l.l_failed) && l.l_queued = 0 then begin
      !reqs.(l.l_slot) <- dummy_req;
      !free.(!free_top) <- l.l_slot;
      incr free_top
    end
  in
  (* An entry [Queue_deadline] drops at dequeue never reaches a worker:
     its report is the only place it stops naming the slot. *)
  let on_expired e =
    let l = !reqs.(e.Admission.e_payload) in
    l.l_queued <- l.l_queued - 1;
    release l
  in
  let stopping = ref false in
  (* Client-side submission loop: a shed verdict schedules a retry at
     the policy's retry-after hint; an admitted attempt arms a client
     timeout that resubmits if the request is still open — the retry
     amplification path, bounded only by [retry_budget]. Timers hold
     the request itself, never its slot: a closed request's slot may
     already serve another. *)
  let rec submit l =
    match
      Admission.offer adm ~core:l.l_core ~tenant:l.l_tenant ~payload:l.l_slot
        ~arrival_ns:l.l_arrival_ns ~retries:l.l_retries
    with
    | Admission.Admitted ->
        l.l_queued <- l.l_queued + 1;
        if cfg.client_timeout_ns > 0.0 then
          Sim.schedule sim
            ~at:(Sim.now sim +. cfg.client_timeout_ns)
            (fun () -> if still_open l then retry l)
    | Admission.Shed { retry_after_ns; _ } ->
        Sim.schedule sim
          ~at:(Sim.now sim +. Float.max 1.0 retry_after_ns)
          (fun () -> if still_open l then retry l)
  and still_open l = not (l.l_done || l.l_failed || !stopping)
  and retry l =
    (* A disciplined client (finite budget) also propagates its
       deadline: once the request can no longer complete in time,
       resubmitting it only burns admission tokens on doomed work,
       crowding out fresh arrivals. The naive client (negative budget)
       retries regardless — that is the retry-storm ablation. *)
    let doomed =
      cfg.retry_budget >= 0
      && (l.l_retries >= cfg.retry_budget
         || cfg.client_deadline_ns > 0.0
            && Sim.now sim -. l.l_arrival_ns > cfg.client_deadline_ns)
    in
    if doomed then begin
      l.l_failed <- true;
      Admission.note_retry_exhausted adm ~core:l.l_core ~tenant:l.l_tenant
        ~retries:l.l_retries;
      release l
    end
    else begin
      l.l_retries <- l.l_retries + 1;
      Admission.note_retry adm;
      submit l
    end
  in
  (* Per-core arrival generators: labelled PRNG splits, so instantiating
     them never perturbs the fork sequence closed-loop runs consume
     (an empty open-loop config reproduces closed-loop baselines). *)
  Array.iter
    (fun core ->
      let aprng =
        Runtime.labeled_prng rt ~label:(Printf.sprintf "openloop-arrivals-%d" core)
      in
      let kprng =
        Runtime.labeled_prng rt ~label:(Printf.sprintf "openloop-keys-%d" core)
      in
      let rec gen now =
        let dt =
          interarrival_ns aprng ~rate_per_ms:(rate_at cfg.arrival ~now_ns:now)
        in
        let at = now +. dt in
        if at <= cfg.window_ns then
          Sim.schedule sim ~at (fun () ->
              if not !stopping then begin
                let tenant = if Prng.int kprng 100 < cfg.scan_pct then 1 else 0 in
                let key = zipf_draw kprng cdf in
                let l =
                  {
                    l_core = core;
                    l_tenant = tenant;
                    l_key = key;
                    l_arrival_ns = at;
                    l_slot = alloc_slot ();
                    l_done = false;
                    l_failed = false;
                    l_retries = 0;
                    l_queued = 0;
                  }
                in
                !reqs.(l.l_slot) <- l;
                submit l;
                gen at
              end)
      in
      gen 0.0)
    cores;
  (* Server-side workers: one fiber per application core, draining its
     admission queue; parked ({!Admission.wait}) when empty. Entries
     whose logical request already closed still execute in full — the
     server cannot know the client gave up — and are counted as wasted
     work (the [Queue_deadline] policy exists to shed exactly these). *)
  let live_workers = ref (Array.length cores) in
  Array.iter
    (fun core ->
      let ctx = Runtime.app_ctx rt core in
      let cstats = Stats.core stats core in
      Runtime.spawn_app rt core (fun () ->
          let rec loop () =
            if !stopping then decr live_workers
            else
              match Admission.take ~on_expired adm ~core with
              | Some e ->
                  let l = !reqs.(e.Admission.e_payload) in
                  Admission.note_executed adm;
                  (match l.l_tenant with
                  | 1 ->
                      ignore
                        (Hashtable.tx_scan ~elastic:Tx.Elastic_read ctx ht
                           ~k:l.l_key ~len:cfg.scan_len)
                  | _ ->
                      if l.l_key land 1 = 0 then
                        ignore (Hashtable.tx_add ctx ht l.l_key)
                      else ignore (Hashtable.tx_remove ctx ht l.l_key));
                  cstats.Stats.ops <- cstats.Stats.ops + 1;
                  Runtime.poll_service rt ~core;
                  if l.l_done || l.l_failed then Admission.note_wasted adm
                  else begin
                    l.l_done <- true;
                    let e2e = Sim.now sim -. l.l_arrival_ns in
                    Admission.note_completed adm ~e2e_ns:e2e
                      ~good:
                        (cfg.client_deadline_ns <= 0.0
                        || e2e <= cfg.client_deadline_ns)
                  end;
                  l.l_queued <- l.l_queued - 1;
                  release l;
                  loop ()
              | None ->
                  if !stopping then decr live_workers
                  else begin
                    Admission.wait adm ~core;
                    loop ()
                  end
          in
          loop ()))
    cores;
  (* Shutdown: at the drain horizon flip the stop flag and wake every
     parked worker; busy workers observe the flag after their current
     entry, so nobody burns virtual time serving a hopeless backlog.
     The hard bound beyond it only catches a transaction livelocking
     across the horizon. *)
  let drain_end = cfg.window_ns +. cfg.drain_ns in
  Sim.schedule sim ~at:drain_end (fun () ->
      stopping := true;
      Admission.wake_all adm);
  let hard = drain_end +. Float.max cfg.window_ns cfg.drain_ns in
  let events = Runtime.run rt ~until:hard () in
  (* Entries still queued (an unserved backlog) or workers still live
     (cut mid-transaction) mean the drain horizon ended the run with
     admitted work unresolved. *)
  let horizon_hit = Admission.pending adm > 0 || !live_workers > 0 in
  Workload.collect rt ~horizon_hit ~events ~duration_ns:cfg.window_ns ()
