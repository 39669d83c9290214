(** Per-core and aggregate execution statistics. *)

type core = {
  mutable commits : int;
  mutable aborts_raw : int;
  mutable aborts_waw : int;
  mutable aborts_war : int;
  mutable aborts_status : int;
      (** aborts discovered through the status word (remote CM abort) *)
  mutable ops : int;  (** application-level operations completed *)
  mutable tx_reads : int;
  mutable tx_writes : int;
  mutable effective_ns : float;  (** FairCM's cumulative successful time *)
  mutable lifespan_ns : float;  (** total start-to-commit time *)
  mutable max_attempts : int;  (** worst number of attempts of one tx *)
}

type t = core array

val create : n_cores:int -> t

val core : t -> int -> core

val aborts : core -> int

val total_commits : t -> int

val total_aborts : t -> int

val total_ops : t -> int

(** Commit rate in percent: commits / (commits + aborts) * 100.
    [nan] when no transaction ran — callers must render the
    "no commits" case explicitly instead of reporting a fake 100%. *)
val commit_rate : t -> float

(** Largest [max_attempts] over all cores — the empirical
    starvation-freedom witness. *)
val worst_attempts : t -> int

val reset : t -> unit
