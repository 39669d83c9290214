(** Online bounded-memory checker.

    The full oracle stack — history reconstruction, DS-lock shadow,
    multi-version serialization-graph test, opacity, liveness —
    restructured as an incremental pipeline fed one event at a time,
    typically installed directly as the trace sink ({!attach}). Memory
    is bounded by the concurrency window, not the run length: closed
    attempts are consumed and dropped, versions older than the
    garbage-collection watermark (the minimum start sequence over
    still-open attempts) are pruned, and serialization-graph nodes are
    retired with path compression once nothing can induce a new edge
    through them, or without it once they are closed sources published
    at or below the watermark.

    Both drivers end here: the batch oracle projects its result onto
    the same {!verdict} and {!witness} ({!Check.verdict}), so one
    history prints one report whichever driver judged it; the
    differential battery requires [equal] verdicts and equal
    reports. *)

open Tm2c_core

(** Everything the checkers decide, in canonical (sorted) form so two
    verdicts over the same stream compare with [=]. *)
type verdict = {
  d_events : int;
  d_attempts : int;
  d_committed : int;
  d_aborted : int;
  d_unfinished : int;
  d_anomalies : int;
  d_reads_checked : int;
  d_reads_skipped : int;
  d_corruption : string list;  (** sorted corruption messages *)
  d_cycle : Types.addr list option;
      (** addresses on the reported conflict cycle, sorted *)
  d_opacity : (Types.addr * Types.addr) list;
      (** witness address pairs of inconsistent reads, sorted *)
  d_opacity_checked : int;
  d_lock_violations : int;
  d_grants : int;
  d_liveness : Liveness.report;
      (** the liveness monitor's whole report: the same online monitor
          the batch checker runs, so it compares exactly *)
}

(** Each checker's violations, as its own witness section renders
    them. *)
type witness = {
  w_anomalies : History.anomaly list;
  w_corruption : string list;
  w_cycle : (Serial.edge list * (int -> string)) option;
      (** the cycle's hops, closing hop last, and the label naming a
          hop's transaction *)
  w_opacity : Serial.inconsistent_read list;
  w_lockset : Lockset.report;
  w_liveness : Liveness.report;
}

(** The one projection both drivers make of their counts and
    witness. *)
val verdict_of_witness :
  events:int ->
  committed:int ->
  aborted:int ->
  unfinished:int ->
  reads_checked:int ->
  reads_skipped:int ->
  opacity_checked:int ->
  witness ->
  verdict

(** Total violations across all checkers (history anomalies count). *)
val n_failures : verdict -> int

val passed : verdict -> bool

val equal : verdict -> verdict -> bool

type t

(** [gc_interval] is the event count between watermark sweeps
    (default 1024); the other knobs mirror {!Check.run}. Wedge
    detection is armed at {!finish}. *)
val create :
  ?liveness_budget:int ->
  ?opacity:bool ->
  ?gc_interval:int ->
  unit ->
  t

(** Feed one event; sink-compatible with
    {!Tm2c_engine.Trace.set_sink}. *)
val feed : t -> float -> Event.t -> unit

(** Install [t] as the trace's sink and enable tracing. *)
val attach : t -> Event.t Tm2c_engine.Trace.t -> unit

(** Close still-open attempts at the horizon and return the verdict.
    [stuck_after_ns] arms wedge detection as in {!Check.run}.
    Idempotent: later calls return the first call's verdict, whatever
    they pass. *)
val finish : ?stuck_after_ns:float -> t -> verdict

(** The witness behind {!finish}'s verdict. Raises [Invalid_argument]
    before {!finish}. *)
val witness : t -> witness

(** The summary: one line per checker, OK/FAIL plus headline
    numbers. *)
val pp_verdict : Format.formatter -> verdict -> unit

(** Each checker's own witness section in turn: history anomalies,
    value corruption, the conflict-graph cycle, opacity witnesses,
    lock violations, abort chains and wedged cores. Empty when nothing
    failed. *)
val pp_sections : Format.formatter -> witness -> unit

(** Summary followed by witness, as a string. *)
val report : verdict -> witness -> string

(** {!report} of this checker. Runs {!finish} (unarmed) if needed. *)
val report_string : t -> string

(** The command-line close-out: print the summary and, on failure,
    the witness, writing the {!report} to [witness_file] if given.
    Returns {!passed}. *)
val conclude : ?witness_file:string -> verdict -> witness -> bool

(** Live serialization-graph nodes right now — the window the checker
    is actually holding. *)
val n_live_nodes : t -> int

(** High-water mark of {!n_live_nodes} over the run; a bounded-memory
    run keeps this flat in run length. *)
val peak_nodes : t -> int
