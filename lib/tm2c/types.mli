(** Shared vocabulary of the TM2C protocol. *)

type core_id = int

type addr = int

(** Conflict classes of the transactional semantics (Section 3.2). *)
type conflict =
  | Raw  (** read-after-write: a reader found a writer *)
  | Waw  (** write-after-write: a writer found a writer *)
  | War  (** write-after-read: a writer found readers *)

val conflict_to_string : conflict -> string

(** Inverse of {!conflict_to_string}. *)
val conflict_of_string : string -> conflict option

(** Why the admission layer refused (or dropped) a request — see
    {!Admission}. The string forms round-trip through the history log
    ([shed_reason_of_string] inverts [shed_reason_to_string]). *)
type shed_reason =
  | Shed_queue_full  (** bounded admission queue at capacity *)
  | Shed_no_tokens  (** token/credit bucket empty *)
  | Shed_deadline  (** queued longer than the queue deadline: dropped at dequeue *)

val shed_reason_to_string : shed_reason -> string

val shed_reason_of_string : string -> shed_reason option

(** Transaction status words.

    Each application core owns one globally accessible status register
    encoding [(attempt, state)]. The contention manager aborts an enemy
    by CAS'ing [(a, Pending) -> (a, Aborted)]; a committing transaction
    CAS'es [(a, Pending) -> (a, Committing)] before persisting its
    write set, so the abort-versus-commit race is decided atomically
    (the paper: "the status of such an aborting transaction is
    atomically switched from pending to aborted"). *)
module Status : sig
  type state = Pending | Committing | Aborted

  val encode : attempt:int -> state -> int

  val decode : int -> int * state
end

(** Contention-management metadata piggybacked on every request
    (Section 4.1): the requester's identity plus everything each
    policy needs to totally order transactions. *)
type cm_meta = {
  m_core : core_id;
  m_attempt : int;  (** per-core attempt counter stamping lock entries *)
  m_offset_ns : float;
      (** Offset-Greedy: local-clock time elapsed since the transaction
          (re)started, from which the DTM node estimates a start
          timestamp against its own clock *)
  m_committed : int;  (** Wholly: transactions committed by this core *)
  m_effective_ns : float;
      (** FairCM: cumulative time spent on successful attempts *)
}

(** A lock holder as recorded by a DTM node: the requester's metadata
    evaluated at grant time. A holder lives as long as its lock, a
    whole transaction on a large mesh, so it is kept small: its floats
    sit in their own all-float record, which OCaml stores flat, where
    a record with int fields would box each float apart. *)
type holder = {
  h_core : core_id;
  h_attempt : int;
  h_committed : int;
  h_clock : holder_clock;
}

and holder_clock = {
  h_est_start_ns : float;
      (** the node-local start estimate computed from [m_offset_ns] *)
  h_effective_ns : float;
  h_granted_ns : float;
      (** server-local time the lock was granted — the lease clock for
          orphan-lock reclamation *)
}
