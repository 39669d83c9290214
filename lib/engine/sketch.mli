(** Log-linear ("HDR-style") mergeable quantile sketch of non-negative
    measurements, with a configurable relative-error bound.

    Each octave [2^e, 2^(e+1)) is divided into [sub] linear
    sub-buckets ([sub] a power of two chosen from [rel_error]); values
    below 1.0 use [sub] linear buckets over [0, 1) and values at or
    above 2^40 share one overflow bucket. A quantile estimate is the
    midpoint of the bucket holding the rank-th sample, clamped to the
    observed range, so it is within a factor [1 +- rel_error t] of the
    true order statistic (absolutely within [rel_error t] below 1.0;
    the overflow bucket reports the exact observed max).

    {!add} is O(1) and allocation-free after the first sample.
    {!merge} adds bucket counts elementwise — associative and
    order-independent — so per-core sketches combine into one
    distribution without retaining samples. Memory is a fixed
    [sub * 41 + 1] ints per materialized sketch, independent of how
    many samples were added. *)

type t

(** [create ?rel_error ()] — the achieved bound {!rel_error} is the
    largest [1/(2*sub)] (sub a power of two) at or below the request;
    default 0.01 (achieved 1/128). Raises outside (0, 0.5). *)
val create : ?rel_error:float -> unit -> t

(** The documented relative-error bound actually guaranteed. *)
val rel_error : t -> float

(** [add t v] counts one sample; a negative [v] counts as 0 and
    infinity in the overflow bucket. Raises [Invalid_argument] on NaN,
    which would poison the sum. *)
val add : t -> float -> unit

(** The bucket a sample [v >= 0] lands in: [0, sub) the linear buckets
    below 1.0, then [sub] per octave, the last the overflow bucket. *)
val bucket_index : t -> float -> int

val count : t -> int

val sum : t -> float

(** 0.0 when empty. *)
val mean : t -> float

val min_value : t -> float

val max_value : t -> float

(** [percentile t p] for [0 < p <= 100]: midpoint estimate for the
    rank-th smallest sample, rank = clamp(round(n*p/100), 1, n);
    0 when empty. *)
val percentile : t -> float -> float

(** [merge ~into src] adds [src]'s counts into [into]. Both sketches
    must have been created with the same resolution. [src] is
    unchanged. *)
val merge : into:t -> t -> unit

(** Non-empty buckets as (upper edge, count), low to high; the
    overflow bucket reports the observed max as its edge. *)
val buckets : t -> (float * int) list

val reset : t -> unit

(** {2 Windows}

    A window is a baseline snapshot of the counts; the delta between
    the live sketch and the baseline is the distribution of samples
    added since the last {!window_roll}. Producers keep writing one
    cumulative sketch (no extra hot-path work); a snapshot subsystem
    reads the window view each tick, then rolls the baseline. *)

type window

(** Baseline a window at [t]'s current contents. *)
val window_of : t -> window

(** Re-baseline [w] at [t]'s current contents (one array blit). *)
val window_roll : t -> window -> unit

(** Samples added since the baseline. *)
val window_count : t -> window -> int

val window_sum : t -> window -> float

(** Quantile over the samples added since the baseline (estimates are
    clamped to the cumulative observed range, a superset of the
    window's). 0 when the window is empty. *)
val window_percentile : t -> window -> float -> float

(** [window_merge t w ~into] folds the since-baseline delta into
    [into] (same resolution required); [into]'s range conservatively
    absorbs [t]'s cumulative min/max. *)
val window_merge : t -> window -> into:t -> unit
