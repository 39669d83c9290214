(** Serializability + opacity oracle: multi-version
    serialization-graph test plus snapshot consistency for
    never-serialized attempts.

    Serialized transactions — committed, or horizon-frozen after
    their publish point (write-back already visible) — are replayed
    in publish order against versioned shared memory; each granted
    read is resolved (by its traced sequence point and observed
    value) to the version it actually saw, inducing WR / WW / RW
    dependency edges. The serialized history is serializable iff the
    graph is acyclic; a cycle is returned with a minimal witness.

    Opacity: attempts that aborted (or were cut off before
    publishing) must also have observed a single consistent snapshot.
    Each such attempt's reads are checked against the installed
    version timeline; an attempt that mixed values from two
    irreconcilable versions yields an {!inconsistent_read} witness
    naming both reads and the versions that pin them apart.

    Initial memory state is untraced (host-side pokes populate the
    benchmark structures before the measured region), so each address
    carries a lazily-bound initial version: the first read only
    explicable by the initial state binds its value; while unbound it
    matches any observed value, so setup state never produces a
    spurious violation.

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
      (** reads whose observed value matches no installed version *)
  cycle : cycle option;
  opacity : inconsistent_read list;
      (** never-serialized attempts that observed an inconsistent
          snapshot; empty when [analyze ~opacity:false] *)
  n_opacity_checked : int;
}

(** A [corruption] entry: the read matches no installed version. *)
val corrupt_read : History.attempt -> History.read -> string

(** [analyze ?opacity h] replays the serialized history and, unless
    [opacity] is [false] (default [true]), snapshot-checks every
    non-elastic attempt that never serialized. *)
val analyze : ?opacity:bool -> History.t -> report

(** No corruption, no cycle, no opacity violation. *)
val ok : report -> bool

(** Snapshot-consistency check for one attempt, shared with the
    streaming checker. [versions_of addr] is the address's version
    timeline as a pub-sorted [(pub_seq, value option)] array (value
    [None] = unbound initial state, matching anything). Returns the
    minimal witness, or [None] if some snapshot instant within the
    attempt's lifetime (at or after its start sequence) explains
    every read. *)
val opacity_check :
  versions_of:(Tm2c_core.Types.addr -> (int * int option) array) ->
  History.attempt ->
  inconsistent_read option

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
