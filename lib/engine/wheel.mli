(** Calendar-queue event set: fixed-width time buckets over the near
    future (each bucket a small unsorted vector) with a {!Heap}
    overflow tier for entries past the window.

    Pop order is exactly the reference {!Heap}'s: lexicographic by
    (priority, push order) — equal priorities pop FIFO. The one
    precondition, satisfied by the simulator's monotonic clock, is that
    a push's priority is never below the last popped priority.
    Priorities must be non-negative and finite. Payloads are ints, so
    the event set stores no pointer: the simulator codes each event as
    one int (see {!Sim}). *)

type t

(** [create ?n_buckets ?width_ns ()] builds a wheel of [n_buckets]
    (power of two, default 4096) buckets of [width_ns] (default 64 ns)
    each — a 262 us near-future window at the defaults, wide enough
    that request-timeout events (a few RTTs out) stay in buckets
    instead of spilling into the overflow tier.
    @raise Invalid_argument on a non-power-of-two bucket count or a
    non-positive width. *)
val create : ?n_buckets:int -> ?width_ns:float -> unit -> t

val length : t -> int

val is_empty : t -> bool

(** [push w priority v] inserts [v]; FIFO among equal priorities. *)
val push : t -> float -> int -> unit

(** Minimum priority, or [infinity] when empty. *)
val min_prio : t -> float

(** [min_gt w x] is [is_empty w || min_prio w > x] without boxing the
    result — the scheduler's hand-off test. *)
val min_gt : t -> float -> bool

(** [take w] removes and returns the minimum entry's value alone. Read
    {!min_prio} first if the key is needed.
    @raise Invalid_argument when the wheel is empty. *)
val take : t -> int

(** [take_below w limit scratch] is the allocation-free hot-path pop,
    folding the horizon test into the scan: when the wheel is empty it
    writes [infinity] into [scratch.(0)] and returns [-1]; when the
    minimum priority exceeds [limit] it writes the minimum and returns
    [-1], leaving the entry queued; otherwise it writes the minimum,
    removes that entry and returns its payload. Payloads must be
    non-negative for [-1] to be unambiguous. [scratch] must have at
    least one element. *)
val take_below : t -> float -> float array -> int

(** [pop_min w] removes and returns the minimum-priority entry, or
    [None] when empty. *)
val pop_min : t -> (float * int) option
