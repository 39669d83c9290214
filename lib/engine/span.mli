(** Per-core phase-time accumulator: attributes every nanosecond of an
    activity (a transaction attempt) to one of a fixed set of named
    phases — per-core quantile sketch plus running sum per phase.

    Disabled by default; guard instrumentation with {!enabled} so a
    disabled span costs one boolean read and zero allocation.

    Protocol: accumulate one attempt's phase durations into a
    caller-owned scratch array ([Array.make (n_phases t) 0.0], reused
    across attempts), then {!flush} once when the outcome is known.
    Using separate [t]s for committed and aborted attempts keeps the
    committed invariant exact: per core, {!phase_total} equals
    {!attempt_ns} up to float rounding. *)

type t

(** [rel_error] is each per-(core, phase) sketch's resolution;
    defaults to 0.02 (coarser than a standalone {!Sketch}, since a
    span holds [n_cores * n_phases] of them). *)
val create : ?rel_error:float -> n_cores:int -> phases:string array -> unit -> t

val enabled : t -> bool

val enable : t -> unit

(** Phase names, in index order. *)
val phases : t -> string array

val n_phases : t -> int

val n_cores : t -> int

(** The per-sketch relative-error bound this span was created with. *)
val rel_error : t -> float

(** One-off sample outside the scratch protocol (e.g. a between-
    attempts backoff delay). Negative durations clamp to zero. *)
val add : t -> core:int -> phase:int -> float -> unit

(** [flush t ~core scratch ~total] folds one attempt's scratch
    durations into the aggregate and zeroes the scratch. [total] is
    the attempt's measured wall (virtual) duration. Zero-duration
    phases are skipped in the sketches but kept exact in the sums. *)
val flush : t -> core:int -> float array -> total:float -> unit

val sketch : t -> core:int -> phase:int -> Sketch.t

(** All cores' sketches for one phase folded into a fresh sketch
    (merge is order-independent, so this equals a single global
    stream's sketch). *)
val merged_sketch : t -> phase:int -> Sketch.t

(** Total ns charged to a phase on a core. *)
val sum : t -> core:int -> phase:int -> float

(** Attempts flushed on a core. *)
val attempts : t -> core:int -> int

(** Summed attempt durations on a core. *)
val attempt_ns : t -> core:int -> float

(** Sum of {!sum} over all phases for one core. *)
val phase_total : t -> core:int -> float
