(** Deterministic fault-injection plans for the simulated substrate.

    A {!plan} describes per-link message perturbations (drop,
    duplication, bounded delay spikes, bounded reordering), DS-server
    stall windows, crash-stop points for application cores and for
    DS-lock servers, and temporary link partitions — all in virtual
    time. A {!t} pairs the plan with its own PRNG stream (give it a
    [Prng.split_label] child so enabling faults with an empty plan
    reproduces baseline schedules bit-for-bit), injection counters,
    and the crashed-core tables. *)

type link_fault = {
  drop_pct : float;  (** probability a message is silently lost *)
  dup_pct : float;  (** probability a message is delivered twice *)
  delay_pct : float;  (** probability of a delay spike *)
  delay_ns : float;  (** size of the spike, virtual ns *)
  reorder_pct : float;  (** probability of a reordering spike *)
  reorder_ns : float;
      (** bound of the uniform extra delay drawn when a reorder fires
          (later messages on the link may overtake this one) *)
}

type stall = {
  stall_core : int;  (** DS-server core that stops serving *)
  stall_from_ns : float;
  stall_until_ns : float;
}

type crash = {
  crash_core : int;  (** app core that crash-stops *)
  crash_at_ns : float;  (** first operation boundary at/after this dies *)
}

type scrash = {
  scrash_core : int;  (** DS-lock server core that crash-stops *)
  scrash_at_ns : float;  (** it stops serving at exactly this instant *)
}

type partition = {
  part_a : int;  (** one endpoint of the partitioned link *)
  part_b : int;  (** the other endpoint (both directions are cut) *)
  part_from_ns : float;
  part_until_ns : float;
}

type plan = {
  link : link_fault option;
  stalls : stall list;
  crashes : crash list;
  scrashes : scrash list;
  parts : partition list;
}

val empty : plan

type counters = {
  mutable dropped : int;
  mutable duplicated : int;
  mutable delayed : int;
  mutable reordered : int;  (** reordering spikes injected *)
  mutable partitioned : int;  (** messages held by a link partition *)
  mutable resends : int;  (** requester-side timeout resends *)
  mutable absorbed : int;  (** duplicate requests answered from cache *)
  mutable leases_reclaimed : int;
  mutable crashes : int;
  mutable server_crashes : int;  (** DS-lock servers crash-stopped *)
  mutable replicated : int;
      (** lock-table mutations shipped to backup cores *)
  mutable failovers : int;  (** epoch bumps promoting a backup *)
  mutable stale_rejections : int;  (** stale-epoch requests refused *)
  mutable cache_evicted : int;  (** response-cache entries expired *)
}

type t

val create : ?plan:plan -> prng:Tm2c_engine.Prng.t -> n_cores:int -> unit -> t

val set_plan : t -> plan -> unit

val plan : t -> plan

val counters : t -> counters

(** Total injections: drops + duplications + delay spikes + reorders +
    partition holds + app-core crashes + server crashes. *)
val injected : t -> int

(** Per-message verdict from the link fault, if any. Draws exactly one
    PRNG value per message when a link fault is configured (plus one
    more for the spike size when a reorder fires), none otherwise.
    Counts the injection and fires the corresponding callback. *)
type action = Deliver | Drop | Duplicate | Delay of float

val link_active : t -> bool

val link_action : t -> src:int -> dst:int -> action

(** End of the stall window enclosing [now] for [core], if stalled. *)
val stall_until : t -> core:int -> now:float -> float option

(** Heal instant of the partition window covering the [src]-[dst] link
    at [now], if the link is cut. Partitions hold messages (delivery
    is delayed to the heal, never dropped); the network counts each
    held message via {!count_partitioned}. No PRNG draw. *)
val partition_release : t -> src:int -> dst:int -> now:float -> float option

val count_partitioned : t -> unit

(** The plan says [core] should be dead by [now] and it has not been
    marked crashed yet. *)
val crash_due : t -> core:int -> now:float -> bool

val mark_crashed : t -> core:int -> unit

val is_crashed : t -> core:int -> bool

(** DS-lock server crash-stop, kept separate from the app-core table:
    the runtime schedules {!mark_server_crashed} at each planned
    [scrash_at_ns]; the service loop dies at its next wakeup once
    {!is_server_crashed} holds. *)
val mark_server_crashed : t -> core:int -> unit

val is_server_crashed : t -> core:int -> bool

(** Trace hooks fired by {!link_action}; installed by the runtime
    (this library cannot see the tm2c event type). *)
val on_drop : t -> (src:int -> dst:int -> unit) -> unit

val on_dup : t -> (src:int -> dst:int -> unit) -> unit

(** Compact plan syntax, e.g.
    ["drop=0.01,dup=0.02,delay=0.05@2000,reorder=0.1@3000,stall=8@1e6+5e5,crash=3@2e6,scrash=4@3e5,part=1-4@1e5+2e5"];
    ["none"] is the empty plan. [to_spec] output parses back to the
    same plan. [of_spec] rejects unknown keys, malformed values and
    out-of-range ones (a probability outside [0, 1], a negative or
    non-finite time or duration) with an error naming the offending
    component and the expected form. *)
val to_spec : plan -> string

val of_spec : string -> (plan, string) result
