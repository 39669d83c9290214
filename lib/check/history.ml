(* Reconstruct per-attempt transaction records from the event stream.

   Events arrive in record order, which is execution order: the trace
   is written sequentially by the single-threaded simulator, so the
   sequence number assigned here is a total order consistent with the
   simulated machine's actual interleaving — including ties in virtual
   time, which the timestamps alone cannot break. All checkers compare
   sequence numbers, never raw timestamps.

   The incremental [builder] is the single reconstruction core: the
   batch checker's builder retains every attempt and returns the full history,
   while the streaming checker runs the same builder with
   [retain:false] and consumes attempts through the [on_close] /
   [on_read] / [on_publish] callbacks, so its memory is bounded by the
   number of concurrently open attempts rather than the run length. *)

open Tm2c_core

type outcome =
  | Committed of { duration_ns : float }
  | Aborted of { conflict : Types.conflict option }
  | Unfinished  (** open when the history ends (run-horizon truncation) *)

type read = {
  r_addr : Types.addr;
  r_value : int;
  r_time : float;
  r_seq : int;
}

type attempt = {
  a_core : Types.core_id;
  a_number : int;  (* the core's attempt counter *)
  a_elastic : bool;
  a_start_time : float;
  a_start_seq : int;
  mutable a_reads : read list;  (* program order after close *)
  mutable a_refused : bool;  (* some read lock was refused *)
  mutable a_writes : (Types.addr * int) list;  (* final value per address *)
  mutable a_wlocks : (int * Types.addr list) list;  (* (seq, batch), trace order *)
  mutable a_rlock_released : (int * Types.addr) list;  (* elastic-early *)
  mutable a_commit_begin_seq : int option;
  mutable a_publish_seq : int option;
  mutable a_publish_time : float;
  mutable a_doomed_seq : int option;  (* first enemy-abort CAS landed *)
  mutable a_end_time : float;
  mutable a_end_seq : int;
  mutable a_outcome : outcome;
}

type anomaly = { an_seq : int; an_time : float; an_message : string }

type t = {
  attempts : attempt list;  (* in Tx_start order *)
  host_writes : (int * Types.addr * int) list;  (* (seq, addr, value) *)
  anomalies : anomaly list;  (* structural inconsistencies in the stream *)
  n_events : int;
  n_orphans : int;  (* events before their core's first Tx_start *)
}

(* Replace-or-append keyed on address, preserving first-store order. *)
let update_write writes addr value =
  let rec go = function
    | [] -> [ (addr, value) ]
    | (a, _) :: rest when a = addr -> (a, value) :: rest
    | kv :: rest -> kv :: go rest
  in
  go writes

type builder = {
  retain : bool;
  on_close : attempt -> unit;
  on_read : attempt -> read -> unit;
  on_publish : attempt -> unit;
  on_host_write : int -> Types.addr -> int -> unit;
  open_attempts : (Types.core_id, attempt) Hashtbl.t;
  started : (Types.core_id, unit) Hashtbl.t;
  mutable b_attempts : attempt list;  (* reversed; empty unless retain *)
  mutable b_host_writes : (int * Types.addr * int) list;  (* reversed *)
  mutable b_anomalies : anomaly list;  (* reversed *)
  mutable b_n_events : int;
  mutable b_n_orphans : int;
}

let builder ?(retain = true) ?(on_close = fun _ -> ())
    ?(on_read = fun _ _ -> ()) ?(on_publish = fun _ -> ())
    ?(on_host_write = fun _ _ _ -> ()) () =
  {
    retain;
    on_close;
    on_read;
    on_publish;
    on_host_write;
    open_attempts = Hashtbl.create 64;
    started = Hashtbl.create 64;
    b_attempts = [];
    b_host_writes = [];
    b_anomalies = [];
    b_n_events = 0;
    b_n_orphans = 0;
  }

let n_events b = b.b_n_events

(* Garbage-collection frontier for the streaming checker: no attempt
   that is still open (or will ever open) can have observed anything
   before the oldest open attempt began. With nothing open the
   frontier is the stream position itself. *)
let watermark b =
  let w = ref b.b_n_events in
  Tm2c_engine.Det.iter
    (fun _ a -> if a.a_start_seq < !w then w := a.a_start_seq)
    b.open_attempts;
  !w

let anomaly b seq time fmt =
  Printf.ksprintf
    (fun m ->
      b.b_anomalies <-
        { an_seq = seq; an_time = time; an_message = m } :: b.b_anomalies)
    fmt

(* Put an attempt's accumulators into program order and hand it on. *)
let closed b a =
  a.a_reads <- List.rev a.a_reads;
  a.a_wlocks <- List.rev a.a_wlocks;
  a.a_rlock_released <- List.rev a.a_rlock_released;
  b.on_close a

let close b seq time a outcome =
  a.a_end_time <- time;
  a.a_end_seq <- seq;
  a.a_outcome <- outcome;
  Hashtbl.remove b.open_attempts a.a_core;
  closed b a

(* An event attributable to a core's current attempt; events arriving
   before the core's first Tx_start (a truncated stream) are counted
   as orphans, later unattributable events are anomalies. *)
let with_open b seq time core what f =
  match Hashtbl.find_opt b.open_attempts core with
  | Some a -> f a
  | None ->
      if Hashtbl.mem b.started core then
        anomaly b seq time "core %d: %s outside any attempt" core what
      else b.b_n_orphans <- b.b_n_orphans + 1

let feed b time ev =
  let seq = b.b_n_events in
  b.b_n_events <- seq + 1;
  match ev with
  | Event.Tx_start { core; attempt; elastic } ->
      (match Hashtbl.find_opt b.open_attempts core with
      | Some prev ->
          anomaly b seq time
            "core %d: attempt %d started while attempt %d still open" core
            attempt prev.a_number;
          close b seq time prev Unfinished
      | None -> ());
      Hashtbl.replace b.started core ();
      let a =
        {
          a_core = core;
          a_number = attempt;
          a_elastic = elastic;
          a_start_time = time;
          a_start_seq = seq;
          a_reads = [];
          a_refused = false;
          a_writes = [];
          a_wlocks = [];
          a_rlock_released = [];
          a_commit_begin_seq = None;
          a_publish_seq = None;
          a_publish_time = 0.0;
          a_doomed_seq = None;
          a_end_time = time;
          a_end_seq = seq;
          a_outcome = Unfinished;
        }
      in
      Hashtbl.replace b.open_attempts core a;
      if b.retain then b.b_attempts <- a :: b.b_attempts
  | Event.Tx_read { core; addr; granted; value } ->
      with_open b seq time core "tx-read" (fun a ->
          if granted then begin
            let r = { r_addr = addr; r_value = value; r_time = time; r_seq = seq } in
            a.a_reads <- r :: a.a_reads;
            b.on_read a r
          end
          else a.a_refused <- true)
  | Event.Tx_write { core; addr; value } ->
      with_open b seq time core "tx-write" (fun a ->
          (* The write set is final at publish, where [on_publish]
             hands it on: a later write is dropped. *)
          if a.a_publish_seq <> None then
            anomaly b seq time "core %d: attempt %d wrote addr=%d after publishing"
              core a.a_number addr
          else a.a_writes <- update_write a.a_writes addr value)
  | Event.Rlock_released { core; addr } ->
      with_open b seq time core "rlock-release" (fun a ->
          a.a_rlock_released <- (seq, addr) :: a.a_rlock_released)
  | Event.Wlock_granted { core; addrs } ->
      with_open b seq time core "wlock" (fun a ->
          a.a_wlocks <- (seq, addrs) :: a.a_wlocks)
  | Event.Tx_commit_begin { core; attempt; _ } ->
      with_open b seq time core "commit-begin" (fun a ->
          if a.a_number <> attempt then
            anomaly b seq time "core %d: commit-begin for attempt %d inside %d"
              core attempt a.a_number;
          a.a_commit_begin_seq <- Some seq)
  | Event.Tx_publish { core; attempt; _ } ->
      with_open b seq time core "publish" (fun a ->
          if a.a_number <> attempt then
            anomaly b seq time "core %d: publish for attempt %d inside %d" core
              attempt a.a_number;
          (* A write set is published once: a second publish is
             dropped. *)
          match a.a_publish_seq with
          | Some _ ->
              anomaly b seq time "core %d: attempt %d published twice" core
                attempt
          | None ->
              a.a_publish_seq <- Some seq;
              a.a_publish_time <- time;
              b.on_publish a)
  | Event.Tx_committed { core; attempt; duration_ns } ->
      with_open b seq time core "committed" (fun a ->
          if a.a_number <> attempt then
            anomaly b seq time "core %d: commit of attempt %d inside %d" core
              attempt a.a_number;
          close b seq time a (Committed { duration_ns }))
  | Event.Tx_aborted { core; attempt; conflict } ->
      with_open b seq time core "aborted" (fun a ->
          if a.a_number <> attempt then
            anomaly b seq time "core %d: abort of attempt %d inside %d" core
              attempt a.a_number;
          (* The status CAS to Committing precedes publish, so nothing
             can abort a published attempt. *)
          if a.a_publish_seq <> None then
            anomaly b seq time "core %d: attempt %d aborted after publishing" core
              a.a_number;
          close b seq time a (Aborted { conflict }))
  | Event.Enemy_aborted { victim; _ } ->
      (* The CAS can only land on a live pending attempt; anything
         else is a protocol violation reported by the lockset
         checker, which replays these events itself. Here we only
         mark the doom point for liveness/serializability use. *)
      (match Hashtbl.find_opt b.open_attempts victim with
      | Some a when a.a_doomed_seq = None -> a.a_doomed_seq <- Some seq
      | Some _ | None -> ())
  | Event.Host_write { addr; value } ->
      (* Attributed to no attempt: setup and private-node init. *)
      if b.retain then b.b_host_writes <- (seq, addr, value) :: b.b_host_writes;
      b.on_host_write seq addr value
  | Event.Core_crashed { core; _ } ->
      (* Crash-stop: the core's open attempt ends here, Unfinished —
         exactly like run-horizon truncation, so no checker treats
         its open locks or missing end event as a violation. *)
      (match Hashtbl.find_opt b.open_attempts core with
      | Some a -> close b seq time a Unfinished
      | None -> ())
  | Event.Lock_conflict _ | Event.Req_sent _ | Event.Service _
  | Event.Service_done _ | Event.Barrier _ | Event.Msg_dropped _
  | Event.Msg_duplicated _ | Event.Req_resent _ | Event.Lease_reclaimed _
  | Event.Server_crashed _ | Event.Epoch_bumped _ | Event.Replica_applied _
  | Event.Failover_done _ | Event.Stale_epoch_rejected _
  | Event.Req_admitted _ | Event.Req_shed _ | Event.Req_expired _
  | Event.Retry_budget_exhausted _ ->
      (* Failover events carry no per-attempt information: a
         server crash ends no application attempt (clients ride it
         out through resend + failover). Admission events precede any
         attempt (shed/expired requests never start a transaction), so
         they carry none either. *)
      ()

(* Attempts still open when the stream ends stay [Unfinished]; their
   accumulators are put into program order and [on_close] fires so a
   streaming consumer sees horizon-truncated attempts too. *)
let finish b =
  Tm2c_engine.Det.iter
    (fun _ a ->
      a.a_outcome <- Unfinished;
      closed b a)
    b.open_attempts;
  Hashtbl.reset b.open_attempts;
  {
    attempts = List.rev b.b_attempts;
    host_writes = List.rev b.b_host_writes;
    anomalies = List.rev b.b_anomalies;
    n_events = b.b_n_events;
    n_orphans = b.b_n_orphans;
  }

let count_outcomes h =
  List.fold_left
    (fun (c, ab, u) a ->
      match a.a_outcome with
      | Committed _ -> (c + 1, ab, u)
      | Aborted _ -> (c, ab + 1, u)
      | Unfinished -> (c, ab, u + 1))
    (0, 0, 0) h.attempts

let pp_anomalies fmt = function
  | [] -> ()
  | anomalies ->
      Format.fprintf fmt "@.== history anomalies (verdicts below are void) ==@.";
      List.iter
        (fun an ->
          Format.fprintf fmt "  seq %d @%.0fns: %s@." an.an_seq an.an_time
            an.an_message)
        anomalies
