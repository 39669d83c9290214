(** DS-Lock protocol checker.

    Replays the event stream against a shadow lock table and validates
    the two-phase discipline: reads never see a foreign write lock,
    write-lock grants are exclusive against live holders, only elastic
    attempts shrink their read set before the end, write-back happens
    under write locks, and enemy-abort CASes never land on victims
    past their publish point. See the implementation header for the
    exact rules and why the shadow is conservative in the right
    direction.

    The checker is single-pass: {!create} / {!feed} / {!finish} is the
    incremental form the streaming checker drives event by event (its
    state is bounded by held locks plus the address working set, not
    run length); {!analyze} is the batch wrapper over an iterator. *)

type violation = { v_seq : int; v_time : float; v_message : string }

type report = {
  violations : violation list;
  n_grants : int;  (** read + write lock grants replayed *)
}

(** Incremental shadow-table state. *)
type t

val create : unit -> t

val feed : t -> float -> Tm2c_core.Event.t -> unit

val finish : t -> report

(** Batch form: [analyze (Collector.iter c)]. *)
val analyze : ((float -> Tm2c_core.Event.t -> unit) -> unit) -> report

val ok : report -> bool

(** The lock-protocol witness section, one line per violation; empty
    when {!ok}. *)
val pp_witness : Format.formatter -> report -> unit
