(** Simulated shared memory.

    A word-addressed (64-bit) non-coherent shared memory served by the
    platform's memory controllers. Addresses are plain ints; address 0
    is reserved as the null pointer. Each access from a simulated core
    charges the platform's memory latency (distance to the responsible
    controller included).

    On cache-coherent platforms ([Platform.cache = Some _]) reads hit a
    bounded private per-core cache unless another core wrote the word
    since it was cached (modeled with per-word version stamps — an
    idealized invalidation-based coherence protocol). *)

type addr = int

type t

(** [create sim platform ~words] makes a memory of [words] words, all
    zero. Host storage is allocated on demand: it starts small and
    grows as stores land further up, so a run pays only for the
    addresses it touches. Accessing an address outside [0, words)
    raises [Invalid_argument]. *)
val create : Tm2c_engine.Sim.t -> Tm2c_noc.Platform.t -> words:int -> t

(** The configured size, in words (not the storage allocated so far). *)
val words : t -> int

(** Memory controller responsible for an address: addresses are
    distributed over the controllers in large contiguous regions, so a
    compact structure lives in a single controller (Section 5.2 notes
    the initial hash table occupies one of the four controllers). *)
val mc_of_addr : t -> addr -> int

(** Timed access from a simulated core (charges latency). *)
val read : t -> core:int -> addr -> int

val write : t -> core:int -> addr -> int -> unit

(** [write_burst t ~core pairs] applies a write set atomically in
    simulated time: the data is visible immediately and the cumulative
    store latency is charged as a single delay. For a transaction's
    post-linearization write-back — per-store [write]s yield between
    stores, so a run horizon could freeze the fiber with the write set
    half applied. *)
val write_burst : t -> core:int -> (addr * int) list -> unit

(** Untimed host-side access, for setup and for checking invariants
    after a run. *)
val peek : t -> addr -> int

val poke : t -> addr -> int -> unit

(** Total timed reads/writes performed (for reports). *)
val n_reads : t -> int

val n_writes : t -> int
