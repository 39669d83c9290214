(** Globally accessible atomic registers.

    The SCC exposes one test-and-set register per core; TM2C uses them
    for the lock-based baseline and (in this implementation) for the
    attempt-stamped transaction status words that linearize
    abort-versus-commit races (see DESIGN.md: a CAS is implementable
    on the SCC with a TAS-guarded status byte; we charge a single
    register-access latency for it). *)

type t

(** [create sim platform ~count] builds [count] registers, all zero. *)
val create : Tm2c_engine.Sim.t -> Tm2c_noc.Platform.t -> count:int -> t

(** Timed atomic read. *)
val read : t -> core:int -> reg:int -> int

(** Timed atomic write. *)
val write : t -> core:int -> reg:int -> int -> unit

(** Test-and-set: atomically sets the register to 1 and returns [true]
    iff it was 0 (i.e. the caller acquired it). *)
val tas : t -> core:int -> reg:int -> bool

(** Compare-and-swap; returns [true] on success. *)
val cas : t -> core:int -> reg:int -> expect:int -> repl:int -> bool

(** Untimed host-side inspection. *)
val peek : t -> reg:int -> int

val poke : t -> reg:int -> int -> unit
