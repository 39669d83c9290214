(** Per-attempt history reconstruction.

    Turns the flat [(timestamp, event)] stream captured by
    {!Collector} into one record per transaction attempt, keyed by
    sequence number — the position of each event in the stream, which
    is the simulator's actual execution order (virtual timestamps can
    tie; sequence numbers cannot). All downstream checkers reason in
    sequence order.

    One incremental {!builder} is the single reconstruction core: the
    batch checker's builder retains everything, while the streaming checker
    feeds the same builder with [retain:false] and consumes attempts
    through callbacks, keeping memory bounded by the concurrency
    window instead of the run length. *)

open Tm2c_core

type outcome =
  | Committed of { duration_ns : float }
  | Aborted of { conflict : Types.conflict option }
  | Unfinished
      (** still open when the history ends — normal when the run hits
          its horizon with fibers mid-transaction; never a violation *)

type read = {
  r_addr : Types.addr;
  r_value : int;  (** the word the memory sample returned *)
  r_time : float;
  r_seq : int;
}

type attempt = {
  a_core : Types.core_id;
  a_number : int;
  a_elastic : bool;
  a_start_time : float;
  a_start_seq : int;
  mutable a_reads : read list;  (** granted reads, program order *)
  mutable a_refused : bool;
  mutable a_writes : (Types.addr * int) list;
      (** final buffered value per address, first-store order *)
  mutable a_wlocks : (int * Types.addr list) list;
      (** write-lock batches granted, as (seq, addrs) *)
  mutable a_rlock_released : (int * Types.addr) list;
      (** elastic-early read-lock releases, as (seq, addr) *)
  mutable a_commit_begin_seq : int option;
  mutable a_publish_seq : int option;
      (** sequence point at which the write set became visible *)
  mutable a_publish_time : float;
  mutable a_doomed_seq : int option;
      (** first enemy-abort CAS that landed on this attempt *)
  mutable a_end_time : float;
  mutable a_end_seq : int;
  mutable a_outcome : outcome;
}

type anomaly = { an_seq : int; an_time : float; an_message : string }

type t = {
  attempts : attempt list;  (** in [Tx_start] order *)
  host_writes : (int * Types.addr * int) list;
      (** host-side stores ([Event.Host_write]) as (seq, addr, value):
          benchmark setup and weak-atomicity private-node
          initialization, attributed to no attempt *)
  anomalies : anomaly list;
      (** structural inconsistencies in the stream itself (nested
          attempts, commit of a different attempt number, double
          publish, a write or an abort after publish, ...) — any of
          these voids the other checkers' verdicts *)
  n_events : int;
  n_orphans : int;
      (** events seen before their core's first [Tx_start]; nonzero
          only for truncated streams *)
  n_committed : int;  (** attempts closed by outcome, retained or not *)
  n_aborted : int;
  n_unfinished : int;
  horizon : float;
      (** the last traced instant, which bounds how long any attempt
          can have hung *)
  crashed : Types.core_id list;
      (** crash-stopped cores ([Event.Core_crashed]), newest first:
          exempt from wedge detection, their open attempt is the
          crash *)
}

(** Incremental reconstruction state. *)
type builder

(** [builder ()] with all defaults behaves exactly like the batch
    path. [retain:false] drops closed attempts and host writes from
    the final {!t} (the callbacks are then the only way to observe
    them), bounding memory by the number of open attempts.
    [on_close] fires once per attempt, when it closes (commit, abort,
    crash, nested-start anomaly, or end of stream) — its accumulator
    lists are already in program order. [on_read] fires per granted
    read, as it is traced. [on_publish] fires at the
    attempt's first [Tx_publish], when its write set is final and
    visible: a later write or publish of the attempt is an anomaly and
    is dropped.
    [on_host_write] fires per [Event.Host_write] as (seq, addr, value). *)
val builder :
  ?retain:bool ->
  ?on_close:(attempt -> unit) ->
  ?on_read:(attempt -> read -> unit) ->
  ?on_publish:(attempt -> unit) ->
  ?on_host_write:(int -> Types.addr -> int -> unit) ->
  unit ->
  builder

val feed : builder -> float -> Event.t -> unit

(** Events fed so far — the sequence number the next event gets. *)
val n_events : builder -> int

(** Min [a_start_seq] over the attempts currently open, or
    {!n_events} when none are: nothing a live (or future) attempt can
    still conflict with precedes this sequence point, so a streaming
    checker may discard state older than it. *)
val watermark : builder -> int

(** Close every still-open attempt as [Unfinished] (firing [on_close])
    and return the assembled history. *)
val finish : builder -> t

(** The history-anomaly witness section; empty when there are none. *)
val pp_anomalies : Format.formatter -> anomaly list -> unit
