(** Deterministic splitmix64 pseudo-random number generator.

    Every source of randomness in the simulator draws from an explicit
    [Prng.t] so that runs are reproducible from a single seed. *)

type t

val create : seed:int -> t

(** [split t] derives an independent stream (e.g. one per simulated
    core) without perturbing [t]'s own sequence statistics. *)
val split : t -> t

(** [split_label t ~label] derives an independent child stream from
    [t]'s current state and [label] {e without advancing} [t]:
    unlike {!split} it draws nothing from the parent, so introducing a
    labelled consumer leaves every other stream derived from [t]
    bit-for-bit unchanged. Distinct labels give distinct streams. *)
val split_label : t -> label:string -> t

(** Next raw 64-bit value (as an OCaml [int], so 63 bits, non-negative). *)
val next : t -> int

(** [int t bound] is uniform in [\[0, bound)] — rejection-sampled, so
    free of modulo bias for every bound. [bound] must be > 0. *)
val int : t -> int -> int

(** Uniform float in [\[0, 1)]. *)
val float : t -> float

val bool : t -> bool
