(** Unbounded FIFO mailbox for simulation processes.

    A mailbox supports any number of senders but at most one process
    blocked in {!recv} at a time (each simulated core owns exactly one
    mailbox, and a core is a single process).

    Every successful receive counts in {!received}; with a receive
    charge configured it also delays the receiver by that charge. *)

type 'a t

(** [create ?recv_charge_ns sim] — with [recv_charge_ns], every
    successful receive ({!recv}, {!try_recv}, {!recv_timeout}) then
    delays the receiver by that many virtual ns (the receive software
    overhead). Without it, receives cost no virtual time; that
    uncharged mode is for tests, and its deliveries always wake a
    blocked receiver through a queued event. *)
val create : ?recv_charge_ns:float -> Sim.t -> 'a t

(** Number of queued messages. A message handed straight to a blocked
    receiver is never queued. *)
val length : 'a t -> int

(** Successful receives so far. *)
val received : 'a t -> int

(** [send mb v] enqueues [v] now, waking the receiver if blocked. *)
val send : 'a t -> 'a -> unit

(** [send_at mb ~at v] delivers [v] at virtual time [at]. Deliveries
    are FIFO per arrival time (ties broken by schedule order). *)
val send_at : 'a t -> at:float -> 'a -> unit

(** Blocking receive. Must be called from a simulation process. *)
val recv : 'a t -> 'a

(** Non-blocking receive. *)
val try_recv : 'a t -> 'a option

(** [recv_timeout mb ~timeout_ns] blocks like {!recv} but gives up
    after [timeout_ns] of virtual time, returning [None] with nothing
    charged. The timeout is inert once a message has arrived (and vice
    versa: a message landing after the timeout went off stays queued
    for a later receive). *)
val recv_timeout : 'a t -> timeout_ns:float -> 'a option
