(** Hash table benchmark (synchrobench-style, Section 5.2).

    An integer set: an array of bucket heads, each bucket a sorted
    singly-linked list of [key; next] nodes laid out in simulated
    shared memory. Operations: [contains], [add], [remove], plus the
    [move] operation added for the eager-versus-lazy comparison of
    Fig. 4(c). The load factor of the paper is [elements / buckets].

    Transactional operations take a {!Tm2c_core.Tx.ctx} and must run
    their own [Tx.atomic]; [seq_*] operations are the bare baselines. *)

type t

val create : Tm2c_core.Runtime.t -> n_buckets:int -> t

val n_buckets : t -> int

(** Host-side (untimed) population: inserts [n] distinct keys drawn
    from [\[0, key_range)]. Used to set the initial load factor. *)
val populate : t -> Tm2c_engine.Prng.t -> n:int -> key_range:int -> unit

(** Transactional operations (each runs one [Tx.atomic]). *)
val tx_contains :
  ?elastic:Tm2c_core.Tx.elastic -> Tm2c_core.Tx.ctx -> t -> int -> bool

val tx_add : ?elastic:Tm2c_core.Tx.elastic -> Tm2c_core.Tx.ctx -> t -> int -> bool

val tx_remove :
  ?elastic:Tm2c_core.Tx.elastic -> Tm2c_core.Tx.ctx -> t -> int -> bool

(** [tx_move ctx t k1 k2] removes [k1] and inserts [k2] in a single
    transaction (both must succeed; returns false and changes nothing
    if [k1] is absent or [k2] present). *)
val tx_move : Tm2c_core.Tx.ctx -> t -> int -> int -> bool

(** [tx_scan ctx t ~k ~len] — one read-only transaction testing the
    [len] consecutive keys starting at [k]; returns the number
    present. With [~elastic:Elastic_read] it is a long elastic scan
    (the multi-tenant mix's second tenant). *)
val tx_scan :
  ?elastic:Tm2c_core.Tx.elastic -> Tm2c_core.Tx.ctx -> t -> k:int -> len:int -> int

(** Sequential baselines: direct, non-transactional access. *)
val seq_contains : Tm2c_core.System.env -> core:int -> t -> int -> bool

val seq_add : Tm2c_core.System.env -> core:int -> t -> int -> bool

val seq_remove : Tm2c_core.System.env -> core:int -> t -> int -> bool

val size : t -> int

val to_list : t -> int list

(** Raises [Invalid_argument] if a bucket is unsorted or contains a
    key that hashes elsewhere. *)
val check_invariants : t -> unit
