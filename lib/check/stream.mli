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

    Verdicts are structurally comparable with the batch oracle via
    {!verdict_of_result}; the differential test battery drives both
    over the same event streams and requires [equal]. *)

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

val n_failures : verdict -> int

val passed : verdict -> bool

val equal : verdict -> verdict -> bool

type t

(** [gc_interval] is the event count between watermark sweeps
    (default 1024); the other knobs mirror {!Check.run}. Wedge
    detection is armed with {!set_stuck_after_ns}. *)
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

(** Arm (or disarm) wedge detection before {!finish}: callers learn
    only at run end whether the watchdog cut the run short. *)
val set_stuck_after_ns : t -> float -> unit

(** Close still-open attempts at the horizon and return the verdict.
    Idempotent: later calls return the same verdict. *)
val finish : t -> verdict

(** Project a batch {!Check.run} result onto the comparable verdict. *)
val verdict_of_result : Check.result -> verdict

val pp_verdict : Format.formatter -> verdict -> unit

(** Witness detail only, composed of the same per-checker sections as
    {!Check.pp_witness} (anomalies, corruption, the cycle, opacity
    witnesses, lock violations, abort chains and wedged cores); empty
    output when the verdict passed. Runs {!finish} if needed. *)
val pp_witness : Format.formatter -> t -> unit

(** Summary plus {!pp_witness}. Runs {!finish} if needed. *)
val report_string : t -> string

(** Live serialization-graph nodes right now — the window the checker
    is actually holding. *)
val n_live_nodes : t -> int

(** High-water mark of {!n_live_nodes} over the run; a bounded-memory
    run keeps this flat in run length. *)
val peak_nodes : t -> int
