(* Bounded per-core admission queues with pluggable overload policies.

   The open-loop driver (Tm2c_apps.Openloop) presents every client
   arrival — and every client retry — to [offer], which either enqueues
   it on the target core's bounded queue or sheds it with a
   retry-after hint. The core's worker fiber consumes entries through
   [take] (which applies queue-deadline shedding lazily, at dequeue)
   and parks in [wait] when its queue is empty; an admitted arrival
   wakes it. Everything is driven by virtual time and the single
   simulator thread, so no synchronization is needed.

   Accounting goes to the always-on [System.overload] counters (zero
   on closed-loop runs) and the lifecycle events [Req_admitted] /
   [Req_shed] / [Req_expired] / [Retry_budget_exhausted] go to the
   trace when tracing is enabled, exactly like every other emit site. *)

open Tm2c_engine
open Types

type policy =
  | Unbounded
  | Reject of { capacity : int }
  | Token_bucket of { capacity : int; rate_per_ms : float; burst : float }
  | Queue_deadline of { capacity : int; deadline_ns : float }

let policy_name = function
  | Unbounded -> "unbounded"
  | Reject _ -> "reject"
  | Token_bucket _ -> "token"
  | Queue_deadline _ -> "deadline"

type entry = {
  e_tenant : int;
  e_payload : int;
  e_arrival_ns : float;
  e_enqueue_ns : float;
  e_retries : int;
}

type queue = {
  q_core : core_id;
  q : entry Queue.t;
  mutable q_tokens : float;  (* token bucket level; meaningless otherwise *)
  mutable q_refill_ns : float;  (* last refill instant *)
  q_worker : Sim.spot;  (* the worker parked on an empty queue *)
}

type t = {
  env : System.env;
  policy : policy;
  retry_after_ns : float;  (* default backoff hint on shed *)
  queues : (core_id, queue) Hashtbl.t;
}

type verdict = Admitted | Shed of { reason : shed_reason; retry_after_ns : float }

let create env ~policy ?(retry_after_ns = 50_000.0) () =
  (match policy with
  | Unbounded -> ()
  | Reject { capacity }
  | Token_bucket { capacity; _ }
  | Queue_deadline { capacity; _ } ->
      if capacity < 1 then invalid_arg "Admission.create: capacity must be >= 1");
  (match policy with
  | Token_bucket { rate_per_ms; burst; _ } ->
      if rate_per_ms <= 0.0 || burst < 1.0 then
        invalid_arg "Admission.create: need rate_per_ms > 0 and burst >= 1"
  | _ -> ());
  { env; policy; retry_after_ns; queues = Hashtbl.create 16 }

let policy t = t.policy

let queue_for t core =
  match Hashtbl.find_opt t.queues core with
  | Some q -> q
  | None ->
      let burst =
        match t.policy with Token_bucket { burst; _ } -> burst | _ -> 0.0
      in
      let q =
        {
          q_core = core;
          q = Queue.create ();
          q_tokens = burst;  (* buckets start full *)
          q_refill_ns = Sim.now t.env.System.sim;
          q_worker = Sim.spot t.env.System.sim;
        }
      in
      Hashtbl.add t.queues core q;
      q

let depth t ~core = Queue.length (queue_for t core).q

let pending t =
  let n = ref 0 in
  Tm2c_engine.Det.iter (fun _ q -> n := !n + Queue.length q.q) t.queues;
  !n

let emit t ev =
  let tr = t.env.System.trace in
  if Trace.enabled tr then
    Trace.record tr ~now:(Sim.now t.env.System.sim) ev

let refill q ~now ~rate_per_ms ~burst =
  let dt_ms = (now -. q.q_refill_ns) /. 1e6 in
  if dt_ms > 0.0 then begin
    q.q_tokens <- Float.min burst (q.q_tokens +. (dt_ms *. rate_per_ms));
    q.q_refill_ns <- now
  end

let offer t ~core ~tenant ~payload ~arrival_ns ~retries =
  let q = queue_for t core in
  let ol = t.env.System.overload in
  let now = Sim.now t.env.System.sim in
  ol.System.ol_offered <- ol.System.ol_offered + 1;
  let cap_ok capacity = Queue.length q.q < capacity in
  let decision =
    match t.policy with
    | Unbounded -> Ok ()
    | Reject { capacity } ->
        if cap_ok capacity then Ok () else Error Shed_queue_full
    | Queue_deadline { capacity; _ } ->
        if cap_ok capacity then Ok () else Error Shed_queue_full
    | Token_bucket { capacity; rate_per_ms; burst } ->
        refill q ~now ~rate_per_ms ~burst;
        if not (cap_ok capacity) then Error Shed_queue_full
        else if q.q_tokens >= 1.0 then begin
          q.q_tokens <- q.q_tokens -. 1.0;
          Ok ()
        end
        else Error Shed_no_tokens
  in
  match decision with
  | Ok () ->
      Queue.add
        {
          e_tenant = tenant;
          e_payload = payload;
          e_arrival_ns = arrival_ns;
          e_enqueue_ns = now;
          e_retries = retries;
        }
        q.q;
      ol.System.ol_admitted <- ol.System.ol_admitted + 1;
      let d = Queue.length q.q in
      if d > ol.System.ol_queue_peak then ol.System.ol_queue_peak <- d;
      emit t (Event.Req_admitted { core; tenant; queue_depth = d });
      Sim.wake q.q_worker;
      Admitted
  | Error reason ->
      ol.System.ol_shed <- ol.System.ol_shed + 1;
      let retry_after_ns =
        match (t.policy, reason) with
        | Token_bucket { rate_per_ms; _ }, Shed_no_tokens ->
            (* Time until the bucket next reaches one whole token. *)
            Float.max t.retry_after_ns
              ((1.0 -. q.q_tokens) /. rate_per_ms *. 1e6)
        | _ -> t.retry_after_ns
      in
      emit t (Event.Req_shed { core; tenant; reason; retry_after_ns });
      Shed { reason; retry_after_ns }

(* Dequeue for the core's worker, applying the queue-deadline policy:
   entries that waited past the deadline are dropped here — shedding
   late but before any transactional work is wasted on them — and each
   is handed to [on_expired], the caller's only sight of it. *)
let rec take ?on_expired t ~core =
  let q = queue_for t core in
  match Queue.take_opt q.q with
  | None -> None
  | Some e -> (
      match t.policy with
      | Queue_deadline { deadline_ns; _ }
        when Sim.now t.env.System.sim -. e.e_enqueue_ns > deadline_ns ->
          let ol = t.env.System.overload in
          ol.System.ol_expired <- ol.System.ol_expired + 1;
          emit t
            (Event.Req_expired
               {
                 core;
                 tenant = e.e_tenant;
                 waited_ns = Sim.now t.env.System.sim -. e.e_enqueue_ns;
               });
          (match on_expired with Some f -> f e | None -> ());
          take ?on_expired t ~core
      | _ -> Some e)

(* Park the calling worker fiber until the next admitted arrival (or an
   explicit [wake_all], which the driver uses at shutdown). One worker
   per core, so a single waiter slot suffices. *)
let wait t ~core = Sim.park (queue_for t core).q_worker

(* Sorted traversal: wake order is scheduling order, so it must not
   depend on hash-table internals. *)
let wake_all t = Tm2c_engine.Det.iter (fun _ q -> Sim.wake q.q_worker) t.queues

(* Driver-side accounting of what happened to dequeued entries. *)

let note_executed t =
  let ol = t.env.System.overload in
  ol.System.ol_executed <- ol.System.ol_executed + 1

let note_completed t ~e2e_ns ~good =
  let ol = t.env.System.overload in
  ol.System.ol_completed <- ol.System.ol_completed + 1;
  if good then ol.System.ol_goodput <- ol.System.ol_goodput + 1;
  Sketch.add t.env.System.e2e_lat e2e_ns

let note_wasted t =
  let ol = t.env.System.overload in
  ol.System.ol_wasted <- ol.System.ol_wasted + 1

let note_retry t =
  let ol = t.env.System.overload in
  ol.System.ol_retries <- ol.System.ol_retries + 1

let note_retry_exhausted t ~core ~tenant ~retries =
  let ol = t.env.System.overload in
  ol.System.ol_retry_exhausted <- ol.System.ol_retry_exhausted + 1;
  emit t (Event.Retry_budget_exhausted { core; tenant; retries })
