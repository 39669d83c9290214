(** Typed trace events spanning the whole stack.

    Recorded into the environment's ring buffer ([System.env.trace])
    only when tracing is enabled; every emit site guards with
    [Trace.enabled] so the constructors below are never allocated on
    untraced runs. The checkers in [Tm2c_check] reconstruct complete
    per-attempt histories from these events, so the documented
    timestamp semantics (sample instants, visibility instants) are
    load-bearing. *)

open Types

type t =
  | Tx_start of { core : core_id; attempt : int; elastic : bool }
      (** [elastic] marks attempts running under an elastic mode: their
          read traces are partial (validated reads are plain memory
          accesses) and their windows may release read locks early, so
          the checkers apply only the write-side rules to them *)
  | Tx_read of { core : core_id; addr : addr; granted : bool; value : int }
      (** read-lock round trip completed (elastic validated reads do
          not appear: they are plain memory accesses). When granted,
          the event is stamped at the instant the memory sample
          returned and [value] is the word read — the serializability
          oracle replays versioned memory against exactly these
          (time, value) pairs. [value] is 0 on a refused lock. *)
  | Tx_write of { core : core_id; addr : addr; value : int }
      (** write buffered; emitted on every store, so the last event
          per address within an attempt carries the value the commit
          will publish *)
  | Tx_commit_begin of { core : core_id; attempt : int; n_writes : int }
  | Host_write of { addr : addr; value : int }
      (** a host-side store outside any transaction: benchmark setup
          (populate) or private-node initialization under weak
          atomicity (the node becomes reachable only when a commit
          publishes a pointer to it). The serializability oracle
          installs these as external versions — without them, node
          reuse after [Alloc.free] would make transactional reads of
          re-initialized words look like value corruption. *)
  | Rlock_released of { core : core_id; addr : addr }
      (** elastic-early dropped the oldest window entry: its read lock
          is released before the attempt ends (normal attempts release
          only at commit/abort, which the checkers infer from the
          attempt-end events) *)
  | Wlock_granted of { core : core_id; addrs : addr list }
      (** a write-lock batch was granted to this core (eager stores
          acquire one address at a time; lazy commits acquire per
          owner node) — the lockset checker's growing-phase witness *)
  | Tx_publish of { core : core_id; attempt : int; n_writes : int }
      (** the attempt passed its status CAS and is about to apply its
          write set: stamped at the exact instant the new values
          become visible to other cores ([Shmem.write_burst] applies
          data immediately and charges latency afterwards) *)
  | Tx_committed of { core : core_id; attempt : int; duration_ns : float }
  | Tx_aborted of { core : core_id; attempt : int; conflict : conflict option }
      (** [conflict = None] is the status-CAS abort path: a remote
          contention manager aborted this attempt by CAS-ing its
          status word ([Enemy_aborted] on the server side), and the
          victim discovered it in [Tx.check_status] or at its own
          commit CAS. Rendered as ["STATUS"] everywhere a conflict
          label is surfaced (trace dumps, JSON, Perfetto). *)
  | Lock_conflict of {
      server : core_id;
      requester : core_id;
      enemy : core_id;
      addr : addr;
      conflict : conflict;
      requester_wins : bool;
    }  (** a contention-manager decision at a DTM core *)
  | Enemy_aborted of {
      server : core_id;
      winner : core_id;
      victim : core_id;
      addr : addr;
      conflict : conflict;
    }  (** the winner's abort CAS landed on the victim's status word *)
  | Req_sent of {
      core : core_id;
      server : core_id;
      req_id : int;
      kind : string;
      n_addrs : int;
    }  (** an application core put a service request on the wire *)
  | Service of {
      server : core_id;
      requester : core_id;
      req_id : int;
      kind : string;
      queue_depth : int;
      occupancy : int;
    }
      (** a DTM core picked up a request: its input-queue depth and
          lock-table occupancy at that instant *)
  | Service_done of { server : core_id; requester : core_id; req_id : int }
      (** the DTM core finished processing (response, if any, sent) *)
  | Barrier of { core : core_id }
  | Msg_dropped of { src : core_id; dst : core_id }
      (** fault injection lost a message on the [src]->[dst] link *)
  | Msg_duplicated of { src : core_id; dst : core_id }
      (** fault injection delivered a message twice on [src]->[dst] *)
  | Req_resent of { core : core_id; server : core_id; req_id : int; nth : int }
      (** the requester's timeout fired and it resent request [req_id]
          (same sequence number, so the server can absorb duplicates);
          [nth] counts resends of this request, starting at 1 *)
  | Core_crashed of { core : core_id; attempt : int }
      (** crash-stop: the core dies at an operation boundary, releasing
          nothing — its open attempt ([attempt], or -1 outside any
          transaction) stays Unfinished and its locks are orphaned
          until lease reclamation revokes them *)
  | Lease_reclaimed of {
      server : core_id;
      victim : core_id;
      addr : addr;
      aborted : bool;
    }
      (** the server revoked [victim]'s lock on [addr] because its
          lease expired (the holder crashed or its release was lost);
          guarded by the status-word CAS, so a committing victim is
          never reclaimed. [aborted] is true when the CAS landed (a
          live pending victim was killed, like [Enemy_aborted]) and
          false when the entry was already stale *)
  | Server_crashed of { server : core_id }
      (** DS-lock server crash-stop ([scrash=] fault): the server stops
          serving at this instant; requests already in its mailbox and
          any sent later are never answered — clients recover only
          through timeout-driven failover *)
  | Epoch_bumped of { part : int; epoch : int; by : core_id }
      (** client [by] gave up on partition [part]'s current owner after
          repeated resend timeouts: the partition epoch advances to
          [epoch] and routing flips to the designated backup *)
  | Replica_applied of { server : core_id; src : core_id; part : int; n_addrs : int }
      (** the backup [server] applied one replicated lock-table
          mutation ([n_addrs] addresses) for partition [part], shipped
          by primary [src] over the reliable replication channel *)
  | Failover_done of { server : core_id; part : int; epoch : int; merged : int }
      (** the promoted backup reconstructed partition [part]'s
          authoritative lock table from its replica log ([merged]
          addresses merged) on the first post-failover request it
          served; in-flight grants whose release was lost with the
          primary are cleared later by lease expiry *)
  | Stale_epoch_rejected of {
      server : core_id;
      core : core_id;
      req_epoch : int;
      cur_epoch : int;
    }
      (** a request stamped with [req_epoch] reached a server whose
          view of the partition is at [cur_epoch] (or which no longer
          owns the partition): refused without touching the lock
          table, so a zombie primary — stalled or partitioned through
          a failover, then healed — can never grant a conflicting
          lock *)
  | Req_admitted of { core : core_id; tenant : int; queue_depth : int }
      (** an open-loop arrival passed admission control onto [core]'s
          bounded queue (see {!Admission}); [queue_depth] is the depth
          after enqueue. Admission events carry no per-attempt
          information: the transaction, if any, starts only when the
          core's worker later dequeues the request. *)
  | Req_shed of {
      core : core_id;
      tenant : int;
      reason : shed_reason;
      retry_after_ns : float;
    }
      (** admission control refused the arrival; [retry_after_ns] is
          the backoff hint handed back to the client (0 when the
          policy has none) *)
  | Req_expired of { core : core_id; tenant : int; waited_ns : float }
      (** a queued request sat longer than the queue deadline and was
          dropped at dequeue — shed late, before any transaction ran *)
  | Retry_budget_exhausted of { core : core_id; tenant : int; retries : int }
      (** the client's bounded retry budget ran out after [retries]
          resubmissions: the request fails permanently instead of
          re-amplifying into a retry storm *)

(** Conflict label of an abort cause; [None] (the status-CAS abort
    path documented on {!Tx_aborted}) renders as ["STATUS"] — the same
    key the JSON export uses in [aborts.by_conflict]. *)
val conflict_opt_to_string : conflict option -> string

(** {1 Description table}

    Every exporter (history log, Perfetto timeline, flight recorder,
    trace dump) is generic over this table: adding an event is one
    constructor, one row in {!kinds}, one case in {!describe} and one
    in {!of_fields}. *)

(** One typed field value. Conflict and shed-reason labels travel as
    [Str] (["RAW"], ["STATUS"], ["QUEUE"], ...). *)
type value = Int of int | Float of float | Bool of bool | Str of string | Ints of int list

type ty = T_int | T_float | T_bool | T_str | T_ints

(** The static description of one constructor. *)
type kind = {
  tag : string;  (** history-log record tag, e.g. ["TXS"] *)
  name : string;  (** snake-case label, e.g. ["tx_start"] *)
  actor : string option;
      (** the field naming the core whose timeline track the event
          belongs to; [None] for host-side stores *)
  fields : (string * ty) list;  (** names and types, in {!describe} order *)
}

(** One row per constructor, in declaration order. *)
val kinds : kind list

(** The constructor's declaration position, i.e. its row's position in
    {!kinds}. Allocation-free: every constructor carries a payload, so
    this is the value's block tag. *)
val index : t -> int

(** The event's row and its field values, in the row's field order
    (the history log's column order). *)
val describe : t -> kind * value list

(** Inverse of {!describe}, keyed by the row's [tag]. [Error] on an
    unknown tag, a field list of the wrong shape, or an unknown
    conflict / shed-reason label. *)
val of_fields : string -> value list -> (t, string) result

(** The trace ring's codec, generic over the table: an event is its
    {!index} and its {!describe} values, one ring column each (a bool
    as 0/1, a label interned, an int list in the ring's side ring);
    decoding reads the row's field types back and goes through
    {!of_fields}. *)
val ring_codec : t Tm2c_engine.Trace.codec

(** [split kind values] separates the actor's core id from the other
    named fields. *)
val split : kind -> value list -> int option * (string * value) list

(** [<actor> <name> k=v ...], e.g. [core=3    tx_start attempt=7 elastic=false]. *)
val pp : Format.formatter -> t -> unit

val to_string : t -> string
