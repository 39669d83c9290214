(** Open-loop client population over the admission-controlled runtime.

    Closed-loop drivers ({!Workload.drive}) issue the next operation
    only when the previous one finishes, so they can saturate but never
    overload. This driver models production traffic: per-core Poisson
    (or bursty flash-crowd) arrivals over a Zipf-skewed key space, a
    two-tenant mix (short read/write transactions plus elastic
    read-only scans), client deadlines and timeouts, and a bounded
    retry budget. Arrivals flow through {!Tm2c_core.Admission}; the
    lifecycle counters land in [System.overload] and the
    arrival-to-commit latency in the [e2e_lat] sketch, so goodput and
    p99/p999 end-to-end latency come out of the standard exports. *)

type arrival =
  | Poisson of { rate_per_ms : float }  (** per-core arrival rate *)
  | Bursty of {
      base_per_ms : float;
      burst_per_ms : float;
      burst_start_ns : float;
      burst_end_ns : float;
    }
      (** flash crowd: [burst_per_ms] inside
          [\[burst_start_ns, burst_end_ns)], [base_per_ms] outside *)

type config = {
  arrival : arrival;
  window_ns : float;  (** arrival window (measurement interval) *)
  drain_ns : float;  (** extra time after the window to drain queues *)
  zipf_s : float;  (** key skew exponent (0 = uniform) *)
  key_range : int;
  scan_pct : int;  (** percent of arrivals that are scan-tenant *)
  scan_len : int;  (** keys probed per elastic scan *)
  client_deadline_ns : float;
      (** completions within this of arrival count as goodput
          (<= 0: every completion is good) *)
  client_timeout_ns : float;
      (** client resubmits an admitted request still unanswered after
          this long (<= 0: clients never time out) — the retry
          amplification path *)
  retry_budget : int;
      (** max client retries per logical request; negative = unbounded
          (the retry-storm ablation) *)
  policy : Tm2c_core.Admission.policy;
      (** used only when the runtime has no admission state yet *)
}

(** Modest 2 ms window: 20 arrivals/ms/core, 10% scans, [Reject]
    admission with a 3-retry budget. *)
val default : config

(** Arrival rate (per ms) in force at [now_ns]. *)
val rate_at : arrival -> now_ns:float -> float

(** One exponential interarrival gap (ns) at the given rate; exactly
    one [Prng.float] draw, [infinity] when the rate is <= 0. *)
val interarrival_ns : Tm2c_engine.Prng.t -> rate_per_ms:float -> float

(** The whole arrival stream in [\[0, until_ns\]] as pure data —
    consumes the PRNG identically to the live driver, so the same
    split yields a bit-identical stream (the determinism tests). *)
val arrival_times :
  arrival -> Tm2c_engine.Prng.t -> until_ns:float -> float list

(** Zipf(s) CDF over ranks [1..n] (array of [n] cumulative weights,
    last = 1.0). *)
val zipf_cdf : s:float -> n:int -> float array

(** Inverse-CDF draw: rank index in [\[0, n)], rank 0 most popular;
    exactly one [Prng.float] draw. *)
val zipf_draw : Tm2c_engine.Prng.t -> float array -> int

(** Run the open-loop population against the runtime: installs
    admission control (per [config.policy]) unless the caller already
    did, starts services, runs arrivals for [window_ns] plus
    [drain_ns] of queue drain, and collects through
    {!Workload.collect} like the closed-loop drivers. The
    result's [horizon_hit] is set when admitted work was still
    unresolved at the drain horizon (unserved backlog). Overload
    counters are in [(Runtime.env rt).System.overload]. *)
val drive : Tm2c_core.Runtime.t -> config -> Workload.result
