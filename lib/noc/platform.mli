(** Platform models: the Intel SCC under its five performance settings
    (Section 5.1 of the paper) and the 48-core AMD Opteron multi-core
    used by Section 7.

    All message- and memory-latency parameters are calibrated against
    the figures reported in the paper: a round-trip message costs
    5.1 us on 2 SCC cores and 12.4 us on 48 (Fig. 8a), shared memory
    accesses are faster than message deliveries (Section 6.2), and the
    multi-core's channels beat the SCC at low core counts but scale
    worse than SCC800 (Fig. 8a). *)

(** Per-core data cache model used on the cache-coherent multi-core:
    reads of shared memory hit a private cache unless another core
    wrote the word since it was cached. *)
type cache_model = {
  capacity_words : int;  (** private cache capacity, in 8-byte words *)
  hit_ns : float;  (** latency of a cache hit *)
}

type t = {
  name : string;
  topology : Topology.t;
  core_hz : float;  (** core clock: compute-cycle cost conversion *)
  msg_send_cycles : int;  (** software cycles spent by the sender *)
  msg_recv_cycles : int;  (** software cycles spent by the receiver *)
  msg_hop_ns : float;  (** per mesh hop wire latency *)
  msg_poll_per_core_ns : float;
      (** detection latency: the receiver scans one flag per
          potentially-sending core, so delivery latency grows linearly
          with the number of active cores (Fig. 8a's scaling) *)
  mem_base_ns : float;  (** shared-memory access, excluding hops *)
  mem_hop_ns : float;  (** per hop to the responsible memory controller *)
  mem_write_ns : float;  (** posted (fire-and-forget) write cost *)
  mem_service_ns : float;
      (** memory-controller occupancy per access: concurrent accesses
          to one controller queue behind each other (the "memory
          congestion" of Section 6.2 and the single-controller
          bandwidth limit noted in Section 5.2) *)
  tas_ns : float;  (** remote atomic test-and-set register access *)
  cache : cache_model option;  (** [Some _] only on coherent platforms *)
}

(** SCC performance settings, indexed 0-4 exactly as the Section 5.1
    table: (tile MHz, mesh MHz, DRAM MHz). *)
val scc_settings : (int * int * int) array

(** [scc_setting i] builds the SCC under performance setting [i];
    raises [Invalid_argument] for [i] outside 0-4. *)
val scc_setting : int -> t

(** SCC under the recommended setting 0 (533/800/800); the platform of
    Sections 5 and 6. *)
val scc : t

(** SCC under setting 1 (800/1600/1066): "SCC800" in Section 7. *)
val scc800 : t

(** [scc_mesh ~cols ~rows] is an SCC-parameter platform scaled out to a
    [cols] x [rows] mesh of 2-core tiles ([2 * cols * rows] cores):
    the substrate for beyond-chip simulations (e.g. 512 or 1024 cores).
    Raises [Invalid_argument] unless both dimensions are at least 1. *)
val scc_mesh : cols:int -> rows:int -> t

(** The 48-core 2.1 GHz AMD Opteron multi-core with Barrelfish-style
    cache-line message channels and hardware cache coherence. *)
val opteron : t

(** All three evaluation platforms, in paper order. *)
val all : t list

val n_cores : t -> int

(** [cycles_ns p c] converts [c] core cycles into nanoseconds. *)
val cycles_ns : t -> int -> float

(** One-way message latency from [src] to [dst] when [active] cores
    are exchanging messages: software send cost + wire + detection.
    The sender-side and receiver-side software shares are exposed
    separately by {!send_overhead_ns} and {!recv_overhead_ns}. *)
val one_way_ns : t -> active:int -> src:int -> dst:int -> float

val send_overhead_ns : t -> float

val recv_overhead_ns : t -> float

(** In-flight part of a message: hops + polling detection. *)
val flight_ns : t -> active:int -> src:int -> dst:int -> float

(** [flight_of_hops p ~active ~hops] — the in-flight time of a message
    crossing [hops] mesh hops; {!flight_ns} is this at the hop count
    between [src] and [dst], bit for bit. *)
val flight_of_hops : t -> active:int -> hops:int -> float

(** Shared-memory read latency for [core] accessing an address served
    by memory controller [mc] (cache misses; hits are [cache.hit_ns]). *)
val mem_read_ns : t -> core:int -> mc:int -> float

val mem_write_ns : t -> core:int -> mc:int -> float

val pp : Format.formatter -> t -> unit
