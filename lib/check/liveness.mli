(** FairCM liveness monitor.

    Measures, per core, the runs of consecutive aborted attempts
    between commits; a run whose length reaches the configured budget
    is a violation — a starvation or livelock regression in the
    contention manager. Runs still open when the history ends count.

    Also detects wedged cores: a core whose final attempt is still
    [Unfinished] at the horizon, showed no activity for at least
    [stuck_after_ns], and did not crash, made no progress at all — the
    signature of a dead DS-lock server nobody failed over from.

    The monitor is online: {!create} / {!close} / {!finish}, fed one
    closed attempt at a time from a {!History.builder}'s [on_close].
    The batch checker ({!Check.run}) and the streaming checker
    ({!Stream}) both drive it, so both report the same chains.
    Closing an aborted attempt allocates nothing. *)

type chain = {
  ch_core : int;
  ch_len : int;  (** consecutive aborted attempts *)
  ch_first_attempt : int;
  ch_start_time : float;
  ch_end_time : float;
}

type stuck = {
  st_core : int;
  st_attempt : int;  (** the attempt wedged open at the horizon *)
  st_since_ns : float;  (** when that attempt started *)
  st_idle_ns : float;
      (** horizon minus the attempt's last recorded activity (start,
          granted reads, publish) — a long-lived transaction still
          reading never looks idle *)
}

type report = {
  budget : int;
  max_chain : chain option;  (** longest abort run observed, any core *)
  violations : chain list;  (** runs with [ch_len >= budget], in {!finish}'s order *)
  stuck : stuck list;  (** wedged cores, by core id *)
}

val default_budget : int

(** 1 ms: the wedge threshold [tm2c-sim] and the fuzz harness arm. *)
val default_stuck_after_ns : float

type t

val create : budget:int -> t

(** Account one attempt as it closes. A core's attempts must arrive
    in the order they started, as [on_close] delivers them. *)
val close : t -> History.attempt -> unit

(** Close the runs still open and report. [horizon] is the last
    instant the stream recorded; [crashed] lists cores exempt from
    wedge detection (crash-stopped cores hold their attempt open by
    design); [stuck_after_ns = infinity] turns wedge detection off
    (run-horizon truncation legitimately leaves recent attempts
    open). Violations come longest first, then by core, then by first
    attempt, whatever order the cores' closes interleaved in;
    [max_chain] is the first chain in that order. May be called
    again; it returns the same report. *)
val finish :
  t -> horizon:float -> crashed:int list -> stuck_after_ns:float -> report

(** No abort chain reached the budget and no core is stuck. *)
val ok : report -> bool

(** The liveness witness: one line per violating chain (core, length,
    first attempt, span) and per wedged core (attempt, start, idle
    time); empty when {!ok}. *)
val pp_witness : Format.formatter -> report -> unit
