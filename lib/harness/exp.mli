(** Shared infrastructure for the figure-reproduction experiments:
    scales (quick/full), standard operation mixes, run combinators and
    table printing. *)

type scale = {
  label : string;
  window_ns : float;  (** measurement window for throughput figures *)
  long_window_ns : float;  (** window for slow workloads (bank balance) *)
  ht_buckets : int;  (** hash-table buckets for the Fig. 4 series *)
  list_elems : int;  (** linked-list size for Fig. 7 (paper: 2048) *)
  bank_accounts : int;  (** Fig. 5a/b/c accounts (paper: 1024) *)
  bank_accounts_5d : int;  (** Fig. 5d accounts (paper: 2048) *)
  mr_sizes_kb : int list;  (** MapReduce input sizes (paper: MB/GB) *)
}

val quick : scale

(** Seconds-long reduced scale for CI smoke runs. *)
val smoke : scale

val full : scale

(** Standard total-core series of the paper's x-axes. *)
val core_series : int list

(** How a figure cell's run is carried out: [runner t drive] gets the
    built runtime before any process is spawned, calls [drive ()] (the
    cell's one driver call) and returns its result. The harness's
    runner instruments [t] first and exports and checks the run after;
    each call keeps its run's state in its own closure. *)
type runner =
  Tm2c_core.Runtime.t -> (unit -> Tm2c_apps.Workload.result) -> Tm2c_apps.Workload.result

(** What an experiment runs with: its scale and the runner every one of
    its cells goes through. *)
type t = { scale : scale; runner : runner }

(** [v ?runner scale]; the default runner just calls [drive ()]. *)
val v : ?runner:runner -> scale -> t

(** [run ex cfg build] is a figure cell: creates the runtime for [cfg],
    builds the workload on it ([build t] returns the drive thunk, one
    driver call), and runs the thunk through [ex.runner]. *)
val run :
  t ->
  Tm2c_core.Runtime.config ->
  (Tm2c_core.Runtime.t -> unit -> Tm2c_apps.Workload.result) ->
  Tm2c_core.Runtime.t * Tm2c_apps.Workload.result

(** [config ~total ()] builds a runtime config: [total] cores with
    half dedicated to the DTM unless [service] says otherwise. *)
val config :
  ?platform:Tm2c_noc.Platform.t ->
  ?policy:Tm2c_core.Cm.policy ->
  ?wmode:Tm2c_core.Tx.wmode ->
  ?deployment:Tm2c_core.Runtime.deployment ->
  ?service:int ->
  ?seed:int ->
  total:int ->
  unit ->
  Tm2c_core.Runtime.config

(** Operation generator type: given a core, its context and PRNG,
    produce the operation thunk run in a loop. *)
type mix =
  Tm2c_core.Types.core_id ->
  Tm2c_core.Tx.ctx ->
  Tm2c_engine.Prng.t ->
  unit ->
  unit

(** Hash-table mix: [updates] percent of operations modify the table
    (half add, half remove), [move] percent are move operations
    (counted inside [updates]); keys are drawn from [range].
    [payload] is per-operation local computation in cycles (the
    benchmark-harness work outside the transaction: operation
    generation, key derivation, value handling), calibrated to
    Fig. 4(b)'s sequential baseline; it also produces the Fig. 2
    service-blocking effect under the multitasking deployment. *)
val ht_mix :
  Tm2c_apps.Hashtable.t -> updates:int -> ?moves:int -> ?payload:int -> range:int -> mix

(** Sorted-list mix at the given elastic mode. *)
val list_mix :
  Tm2c_apps.Linkedlist.t -> mode:Tm2c_apps.Linkedlist.mode -> updates:int -> range:int -> mix

(** Bank mix: [balance] percent balance operations, rest transfers. *)
val bank_mix : Tm2c_apps.Bank.t -> balance:int -> mix

(** Throughput of the sequential baseline (single core, no DTM) at
    the experiment's window, in ops/ms: [make_op t] builds the
    workload on the 2-core runtime and returns the operation generator
    of {!Tm2c_apps.Workload.drive_seq}. *)
val seq_throughput :
  t ->
  (Tm2c_core.Runtime.t -> core:Tm2c_core.Types.core_id -> Tm2c_engine.Prng.t -> unit -> unit) ->
  float

(** [ratio num den] is [num /. den], or [nan] when [den <= 0.0] — the
    zero-commit-window case. {!print_table} renders non-finite cells
    as ["n/a"], so dead windows are visible instead of appearing as a
    0.0 speedup. *)
val ratio : float -> float -> float

(** Table printing: a header line, then rows of numeric cells.
    Non-finite cells render as ["n/a"]. *)
val print_table : title:string -> header:string list -> (string * float list) list -> unit

val row_label_int : int -> string
