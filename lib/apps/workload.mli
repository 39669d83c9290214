(** Benchmark drivers: run operation mixes for a fixed window of
    virtual time (throughput experiments) or to completion (the
    MapReduce duration experiments), and collect the numbers the
    paper's figures report. *)

type result = {
  ops : int;  (** application operations completed in the window *)
  duration_ms : float;  (** virtual milliseconds simulated *)
  throughput_ops_ms : float;
  commits : int;
  aborts : int;
  commit_rate : float;  (** percent *)
  worst_attempts : int;  (** empirical starvation witness *)
  messages : int;  (** total messages on the interconnect *)
  events : int;  (** simulator events processed *)
  horizon_hit : bool;
      (** the hard safety horizon terminated the run with work still
          incomplete: in {!run_to_completion}, some worker never
          finished; in {!drive}, some core completed zero operations
          over the whole window (blocked forever or livelocked); in
          the open-loop driver, admitted requests were still
          unresolved at the drain horizon. A flagged result's
          duration/throughput must not be read as a healthy
          measurement. *)
}

(** Assemble a {!result} from the runtime's totals, closing out the
    flight recorder first. Custom drivers — the open-loop population
    model — end with this, so their results read like the built-in
    drivers'. *)
val collect :
  Tm2c_core.Runtime.t ->
  ?horizon_hit:bool ->
  events:int ->
  duration_ns:float ->
  unit ->
  result

(** [drive t ~duration_ns make_op] — starts the DTM services, gives
    every application core an operation generator, and simulates
    [duration_ns] of virtual time (hard horizon: livelocked
    configurations still terminate and report their near-zero
    throughput). [make_op core ctx prng] returns the thunk executed in
    a loop by that core. *)
val drive :
  Tm2c_core.Runtime.t ->
  duration_ns:float ->
  (Tm2c_core.Types.core_id -> Tm2c_core.Tx.ctx -> Tm2c_engine.Prng.t -> (unit -> unit)) ->
  result

(** Sequential baseline: one core loops over [op] for the window, no
    DTM service at all. *)
val drive_seq :
  Tm2c_core.Runtime.t ->
  duration_ns:float ->
  (core:Tm2c_core.Types.core_id -> Tm2c_engine.Prng.t -> (unit -> unit)) ->
  result

(** [run_to_completion t work] — starts services, runs [work] on every
    application core, waits for all of them to finish (with a generous
    safety horizon) and returns the result with [duration_ms] the
    virtual instant the last worker finished (the horizon when
    [horizon_hit]). *)
val run_to_completion :
  Tm2c_core.Runtime.t ->
  ?horizon_ns:float ->
  (Tm2c_core.Types.core_id -> Tm2c_core.Tx.ctx -> Tm2c_engine.Prng.t -> unit) ->
  result
