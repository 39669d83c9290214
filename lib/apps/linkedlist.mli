(** Sorted linked-list benchmark (synchrobench-style; Sections 6.2 and
    7.2). An integer set as one sorted singly-linked list — every
    operation walks the list from the head, which makes it the
    high-contention, elastic-transaction showcase: the read-only
    traversal prefix produces false WAR conflicts that elastic
    transactions ignore.

    [mode] selects the Section 6.1 implementation: [`Normal] classic
    transactions, [`Elastic_early] early read-lock release,
    [`Elastic_read] lock-free validated reads. *)

type t

type mode = [ `Normal | `Elastic_early | `Elastic_read ]

val create : Tm2c_core.Runtime.t -> t

(** Host-side population with [n] distinct keys from [\[0, key_range)]. *)
val populate : t -> Tm2c_engine.Prng.t -> n:int -> key_range:int -> unit

val tx_contains : mode:mode -> Tm2c_core.Tx.ctx -> t -> int -> bool

val tx_add : mode:mode -> Tm2c_core.Tx.ctx -> t -> int -> bool

val tx_remove : mode:mode -> Tm2c_core.Tx.ctx -> t -> int -> bool

val seq_contains : Tm2c_core.System.env -> core:int -> t -> int -> bool

val seq_add : Tm2c_core.System.env -> core:int -> t -> int -> bool

val seq_remove : Tm2c_core.System.env -> core:int -> t -> int -> bool

val size : t -> int

val to_list : t -> int list

(** Raises [Invalid_argument] if the list is not strictly sorted. *)
val check_invariants : t -> unit
