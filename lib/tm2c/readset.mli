(** The read set of one transaction context: each address read under
    a read lock, with the value read, and the order the locks were
    taken in. Flat arrays, owned by the context and reused by every
    attempt: a read adds no heap record, so nothing per read outlives
    its round trip (see DESIGN.md, "Allocation on the lock round
    trip"). Addresses are non-negative. *)

type t

val create : unit -> t

(** Forget every entry (the next attempt starts empty). O(1). *)
val clear : t -> unit

val find_opt : t -> Types.addr -> int option

(** [add t addr v] records a read of [addr] that returned [v]. [addr]
    must not be in [t]. *)
val add : t -> Types.addr -> int -> unit

(** [remove t addr] forgets [addr] (an elastic-early release); no-op
    if absent. *)
val remove : t -> Types.addr -> unit

(** Fold over the addresses in [t], most recently added first. *)
val fold_newest : ('a -> Types.addr -> 'a) -> 'a -> t -> 'a
