(** One run description: every [tm2c-sim] flag that changes the
    simulated run — benchmark and its parameters, platform, cores,
    deployment, contention manager, write mode, fault plan, hardening
    and replication. [tm2c-sim] parses it with {!term}; the fault
    fuzzer builds its shapes from it, and {!args} prints the
    [tm2c-sim] flags that repeat a run. *)

type bench = Bank | Hashtable | List_bench | Mapreduce | Counter

type t = {
  bench : bench;
  platform : Tm2c_noc.Platform.t;
  cm : Tm2c_core.Cm.policy;
  cores : int;  (** total cores *)
  service : int option;  (** DTM cores (default: half); ignored multitasked *)
  multitask : bool;
  eager : bool;
  fault_plan : Tm2c_noc.Fault.plan option;
  timeout_ns : float;  (** DTM request timeout; 0 disables *)
  lease_ns : float;  (** lock lease; 0 disables *)
  replicas : int;
  duration_ms : float;  (** virtual window (not MapReduce: it runs to completion) *)
  seed : int;
  balance : int;  (** bank: percent balance operations *)
  accounts : int;  (** bank *)
  buckets : int;  (** hash table *)
  updates : int;  (** hash table, list: percent updates *)
  elastic : Tm2c_apps.Linkedlist.mode;  (** list *)
  size : int;  (** hash table, list: initial size *)
  input_kb : int;  (** MapReduce *)
  chunk_kb : int;  (** MapReduce *)
}

(** The flags' defaults: bank on the 48-core SCC, FairCM, lazy writes,
    50 virtual ms, seed 42, no faults. *)
val default : t

(** The command-line flags, [--bench] through [--chunk-kb], plus
    [--fault-plan], [--timeout-ns], [--lease-ns] and [--replicas]. A
    spec the runtime cannot build (too few or too many cores for the
    platform, a service count outside [1 .. cores-1], an impossible
    replication) is a usage error naming the flag. *)
val term : t Cmdliner.Term.t

(** The flags that select [t]: [--bench], [--cores], [--duration] and
    [--seed] always, every other flag when it differs from {!default}.
    Parsing them with {!term} gives back [t]. A scaled mesh prints as
    [--platform mesh:COLSxROWS]. Raises [Invalid_argument] for a
    platform with no flag value (one built outside {!Tm2c_noc.Platform}'s
    named constructors). *)
val args : t -> string list

val config : t -> Tm2c_core.Runtime.config

(** A runtime for [t]'s config with its fault plan, hardening and
    replication installed. *)
val runtime : t -> Tm2c_core.Runtime.t

(** Build the benchmark on the runtime, drive it (for [duration_ms],
    or MapReduce to completion) and check its invariants. Returns the
    result and the benchmark's closing report line (final balance,
    size, histogram check or counter value). *)
val run : t -> Tm2c_core.Runtime.t -> Tm2c_apps.Workload.result * string
