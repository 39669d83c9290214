(** Message-passing layer over the simulated on-chip network.

    Each core owns one mailbox. [send] charges the sender's software
    overhead (the sender's virtual time advances), then the message
    spends the wire + detection latency in flight; [recv] additionally
    charges the receiver's software overhead. The detection latency
    grows with the number of [active] cores, modeling the SCC's
    flag-polling receive loop (and the multi-core's channel scan). *)

type 'a t

(** Always-on message-layer metrics (cheap counters; they never touch
    the simulated timings). Per-link counts are read through
    {!link_count} and {!top_links}. *)
type metrics = {
  latency : Tm2c_engine.Sketch.t;
      (** in-flight time per message (wire hops + detection scan), ns *)
  mutable poll_scans : int;  (** fruitless [try_recv] scans *)
  mutable poll_scan_ns : float;  (** virtual ns burned by those scans *)
}

val create : Tm2c_engine.Sim.t -> Platform.t -> active:int -> 'a t

val platform : 'a t -> Platform.t

(** [flight_ns net ~src ~dst] — a message's in-flight time from [src]
    to [dst]: {!Platform.flight_ns} at this network's [active] width,
    bit for bit, looked up by hop count without allocating. *)
val flight_ns : 'a t -> src:int -> dst:int -> float

(** [send net ~src ~dst msg] — blocks the sender for the send software
    overhead; delivery is scheduled after the flight latency. When a
    fault layer with an active link fault is installed, the message may
    instead be dropped, duplicated, or delayed per {!Fault.link_action}
    (the sender still pays its overhead either way); a link partition
    covering [src]-[dst] holds the message until its heal instant. *)
val send : 'a t -> src:int -> dst:int -> 'a -> unit

(** Like {!send} but bypassing fault injection entirely (same overhead
    and flight time): the reliable-FIFO channel used for lock-table
    replication, where a silently lost message would diverge the
    backup's replica (see DESIGN.md "Failover"). *)
val send_reliable : 'a t -> src:int -> dst:int -> 'a -> unit

(** Install (or clear) the fault-injection layer consulted by [send].
    [None] — and an installed layer whose plan has no link fault —
    leave the delivery schedule bit-for-bit unchanged. *)
val set_faults : 'a t -> Fault.t option -> unit

(** [recv net ~self] — blocks until a message is available, then
    charges the receive software overhead. *)
val recv : 'a t -> self:int -> 'a

(** [recv_pending net ~self] — non-suspending take for batch drains:
    returns an already-arrived message with exactly {!recv}'s receive
    overhead charged, or [None] with nothing charged when the mailbox
    is empty (the caller then falls back to a blocking {!recv}). *)
val recv_pending : 'a t -> self:int -> 'a option

(** Like {!recv} but gives up after [timeout_ns] of virtual time,
    returning [None] with nothing charged (used for request-timeout
    hardening). *)
val recv_timeout : 'a t -> self:int -> timeout_ns:float -> 'a option

(** [try_recv net ~self] — polls the mailbox. On [Some _] the receive
    overhead has been charged; on [None] a single poll-scan cost has
    been charged (used by the multitasking deployment). *)
val try_recv : 'a t -> self:int -> 'a option

(** Messages waiting for [self], without charging anything. *)
val pending : 'a t -> self:int -> int

(** Total messages sent so far on this network. *)
val sent : 'a t -> int

(** Total messages received so far (each charged the receive
    overhead). *)
val received : 'a t -> int

val metrics : 'a t -> metrics

(** [link_count net ~src ~dst] — messages sent from [src] to [dst] so
    far, exact. A send only appends the pair to a short log, which is
    folded into a flat per-link table when it fills and before every
    read, so no send writes the n*n table directly. *)
val link_count : 'a t -> src:int -> dst:int -> int

(** Every link's {!link_count} at once, in a fresh array indexed
    [src * n + dst] for the platform's [n] cores. *)
val link_counts : 'a t -> int array

(** Busiest (src, dst, count) links, descending; at most [limit]
    (default 16); links with no message are omitted. Ties list the
    higher (src, dst) pair first. *)
val top_links : ?limit:int -> 'a t -> (int * int * int) list

(** [top_pairs ~limit n weight] — the at most [limit] pairs of
    [0, n) x [0, n) with the largest positive [weight src dst], as
    [(src, dst, weight)], heaviest first; ties list the higher
    (src, dst) pair first. Exactly what a stable sort by descending
    weight of the positive pairs listed from (n-1, n-1) down to (0, 0)
    keeps, in one pass without the sort. [weight] is called once per
    pair, in that order. *)
val top_pairs : limit:int -> int -> (int -> int -> int) -> (int * int * int) list

(** [cycles_ns net c] — what [c] cycles of local computation cost in
    ns at the platform's core frequency: {!Platform.cycles_ns} behind a
    memo, bit-for-bit the same value. *)
val cycles_ns : 'a t -> int -> float

(** [compute net cycles] charges [cycles] of local computation at the
    platform's core frequency. *)
val compute : 'a t -> int -> unit
