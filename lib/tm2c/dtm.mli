(** The DTM service: one server per service core, owning the lock
    table for its partition of the shared memory (Section 3.2).

    [handle] implements Algorithms 1 and 2. On conflict it calls the
    contention manager ({!Cm.decide}); when the requester wins, each
    enemy is aborted by CAS'ing its status word from
    [(attempt, Pending)] to [(attempt, Aborted)] and revoking its
    lock-table entries. A failed CAS means the enemy already reached
    its commit point (or moved on), in which case the requester is
    conservatively told to abort — safe, and transient, so it does not
    compromise starvation-freedom (the loser's priority is preserved
    across the retry). *)

type server

(** Each server additionally arbitrates exclusive ownership of its
    partition for irrevocable transactions (Section 2's extension):
    an [Exclusive_acquire] is granted once the lock table has drained
    — normal requests are refused in the meantime — and queued FIFO
    behind other exclusive requests otherwise. *)
val make : n_cores:int -> core:Types.core_id -> server

val core : server -> Types.core_id

val locks : server -> Locktable.t

(** Requests processed so far. *)
val served : server -> int

(** (mean, max) input-queue depth sampled at each request pickup —
    how far behind this service core runs. (0., 0) before any
    request. *)
val queue_depth_stats : server -> float * int

(** (mean, max) lock-table occupancy sampled at each request pickup. *)
val occupancy_stats : server -> float * int

(** Virtual ns this server spent processing requests (pickup to
    response sent); divided by the run duration it is the service
    core's utilization. *)
val busy_ns : server -> float

(** Lease reclamations performed by this server (the per-partition
    split of [Fault.counters.leases_reclaimed]). *)
val lease_reclaims : server -> int

(** Live entries in the duplicate-absorption response cache. Bounded:
    entries idle past the absorption window — max(timeout * 32, lease)
    — are evicted opportunistically (every 64th request), so the cache
    stays flat under long duplicate-heavy runs. *)
val resp_cache_size : server -> int

(** Short stable label for a request kind ("read_lock",
    "write_locks", ...), for trace events. Allocation-free. *)
val kind_label : System.request_kind -> string

(** Addresses carried by a request (1 for the addressless kinds) —
    the unit the per-address processing cost scales with. *)
val kind_addrs : System.request_kind -> int

(** Deterministic request-processing cost for a request carrying
    [n_addrs] addresses, in ns. The requester-side phase attribution
    uses it to split a lock round trip into transit / service / queue
    components; conflict-resolution work is excluded (it lands in the
    queue residual). *)
val service_estimate_ns : System.env -> n_addrs:int -> float

(** Process one request; sends the response (if any) over the network
    from this server's core. Charges the server's processing cycles. *)
val handle : System.env -> server -> System.request -> unit

(** Dedicated-deployment service loop: receive and handle requests
    forever. Runs until the simulation ends, or — under an [scrash=]
    fault — until the server is marked crashed, at which point it dies
    silently at its next wakeup without handling the waking message.
    Also applies [System.Repl] lock-table replication from partitions
    this server backs up (see DESIGN.md "Failover"). *)
val service_loop : System.env -> server -> unit
