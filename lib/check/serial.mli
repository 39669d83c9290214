(** Serializability + opacity oracle: multi-version
    serialization-graph test plus snapshot consistency for
    never-serialized attempts.

    Serialized transactions — committed, or published (write-back
    already visible) and then horizon-frozen or, a history anomaly,
    aborted — install their writes as versions of shared memory; each
    granted read is resolved (by its traced sequence point and
    observed value) to the version it actually saw, inducing WR / WW /
    RW dependency edges. The serialized history is serializable iff
    the graph is acyclic; a cycle is returned with a minimal witness.
    The graph has no node for host writes or the initial version, nor
    any real-time order, so each serialized attempt must also
    serialize at one instant of its lifetime ({!judge_serialized}).

    Opacity: attempts that aborted (or were cut off before
    publishing) must also have observed a single consistent snapshot.
    Each such attempt's reads are checked against the installed
    version timeline; an attempt that mixed values from two
    irreconcilable versions yields an {!inconsistent_read} witness
    naming both reads and the versions that pin them apart.

    Both drivers use one resolver ({!observe}, {!judge_serialized}), which
    matches a read only to a version published before it, in one
    order. Initial memory state is untraced before the measured
    region, so each address carries a lazily-bound initial version:
    the first granted read in sequence order that resolves to it
    binds its value, whatever its attempt's outcome. Each attempt is
    then judged once, in the order the history builder closes it. An
    initial version no read has bound matches any value in the
    snapshot check, so setup state never produces a spurious
    violation.

    Elastic attempts are excluded from both read checks — their read
    traces are intentionally partial and early read-lock release is
    by design a license to span snapshots (validated by their own
    windowed read rule). Their writes still install versions. *)

type edge_kind = Wr | Ww | Rw

type edge = {
  e_from : int;  (** txn index in {!report.txns} *)
  e_to : int;
  e_kind : edge_kind;
  e_addr : Tm2c_core.Types.addr;
  e_seq : int;  (** sequence point of the inducing observation *)
}

type cycle = {
  c_txns : int list;  (** txn indices along the cycle, in order *)
  c_edges : edge list;  (** one edge per hop, closing edge last *)
}

(** Opacity violation: one attempt whose read prefix fits no single
    memory snapshot. Read 1 is the earliest read irreconcilable with
    read 2, the read at which the attempt's feasible-snapshot set
    became empty; [ir_pub1]/[ir_pub2] are the publish sequence points
    of the versions each read most plausibly observed (-1 = unbound
    initial state). *)
type inconsistent_read = {
  ir_core : Tm2c_core.Types.core_id;
  ir_attempt : int;
  ir_start_seq : int;
  ir_end_seq : int;
  ir_addr1 : Tm2c_core.Types.addr;
  ir_value1 : int;
  ir_seq1 : int;
  ir_pub1 : int;
  ir_addr2 : Tm2c_core.Types.addr;
  ir_value2 : int;
  ir_seq2 : int;
  ir_pub2 : int;
}

type report = {
  txns : History.attempt array;
      (** serialized transactions in publish order; edge endpoints
          index into this array *)
  n_reads_checked : int;
  n_reads_skipped : int;  (** reads of elastic serialized attempts *)
  corruption : string list;
      (** reads whose observed value matches no installed version, or
          whose version a serialized attempt could not have seen
          ({!judge_serialized}) *)
  cycle : cycle option;
  opacity : inconsistent_read list;
      (** never-serialized attempts that observed an inconsistent
          snapshot; empty when [analyze ~opacity:false] *)
  n_opacity_checked : int;
}

(** What the history builder hands on, in trace order: a granted read
    ([on_read]) or a closed attempt ([on_close]). *)
type step = Read of History.attempt * History.read | Close of History.attempt

(** [analyze ?opacity ~steps h] replays [h]'s [steps] in order, as the
    stream meets them: each read is observed (unless its attempt is
    elastic) and each closed attempt judged — a serialized one through
    {!judge_serialized}, and unless [opacity] is [false] (default
    [true]) every non-elastic one that never serialized through
    {!opacity_check}. *)
val analyze : ?opacity:bool -> steps:step list -> History.t -> report

(** No corruption, no cycle, no opacity violation. *)
val ok : report -> bool

(** {2 Read resolution, shared by both drivers} *)

(** A version of one address: its publish sequence point, its value
    ([None]: the initial version no read has bound yet) and the graph
    node of the serialized transaction that installed it (-1: the
    initial version or a host write). *)
type version = { v_pub : int; mutable v_value : int option; v_writer : int }

(** A fresh unbound initial version, published at -1. *)
val initial : unit -> version

(** [observe vs r] resolves read [r] as it is traced, against its
    address's timeline [vs] (newest first, the initial version last),
    among the versions published before [r]: the newest, binding it
    if it is the unbound initial version; else the nearest older
    match (a stale read); else the initial version, binding it if
    unbound. *)
val observe : version list -> History.read -> unit

(** [judge_serialized ~versions_of ~on_version ~pub a] judges a
    serialized, non-elastic attempt whose reads have been observed and
    whose writes were installed at [pub]. Each read resolves to the
    version {!observe} resolved it to, among those published before
    it: [on_version r v w] receives it, with [w] the graph node of the
    next transactional version after [v] (-1: none yet).
    [versions_of addr] is the address's timeline, newest first.
    Returns the [corruption] entries: each read that matches no
    version, in read order; else, if no instant at or after the
    attempt's start, the versions it read and the versions its writes
    follow precedes every overwrite of a version it read, the read
    whose version was overwritten first. The graph has no node for the
    initial version or a host write, so only this catches a read of a
    version those overwrote before the attempt could see it. *)
val judge_serialized :
  versions_of:(Tm2c_core.Types.addr -> version list) ->
  on_version:(History.read -> version -> int -> unit) ->
  pub:int ->
  History.attempt ->
  string list

(** Snapshot-consistency check for one never-serialized attempt,
    shared with the streaming checker. [versions_of addr] is the
    address's timeline, newest first; the attempt's reads have been
    observed. Returns the minimal witness, or [None] if some
    snapshot instant within the attempt's lifetime (at or after its
    start sequence) explains every read. *)
val opacity_check :
  versions_of:(Tm2c_core.Types.addr -> version list) ->
  History.attempt ->
  inconsistent_read option

(** The report's orders, whatever order attempts were judged in:
    [by_publish] lists corrupt-read messages from (publish point,
    message) pairs held newest first, by publish point and then read
    order; [by_start] lists opacity witnesses by attempt start. *)
val by_publish : (int * string) list -> string list

val by_start : inconsistent_read list -> inconsistent_read list

(** {2 Witness sections}

    Shared by the batch ({!Check}) and streaming ({!Stream}) reports;
    each prints nothing when its list is empty. *)

(** [T<id>[core C attempt A, published @Pns]]: how a witness names a
    serialized transaction. *)
val txn_label : int -> core:int -> attempt:int -> published:float -> string

val pp_corruption : Format.formatter -> string list -> unit

(** A conflict-graph cycle, one line per hop; [label] names an edge
    endpoint. *)
val pp_cycle : label:(int -> string) -> Format.formatter -> edge list -> unit

val pp_opacity : Format.formatter -> inconsistent_read list -> unit
