(** Experiment registry: every table and figure of the paper's
    evaluation, addressable by id ("fig4a" ... "fig8d", "settings"). *)

type experiment = {
  id : string;
  description : string;
  run : Exp.t -> unit;  (** every figure cell goes through {!Exp.run} *)
}

val all : experiment list

val find : string -> experiment option

(** [check_ids ids] is [Ok ids] when every id names an experiment, is
    ["all"], or is ["ratio"] (the benchmark executable's core-count
    ratio measurement); otherwise an error naming the first unknown
    id. *)
val check_ids : string list -> (string list, string) result

(** [run_ids ?json ?check ids scale] runs the named experiments
    (["all"] expands to every experiment), printing each one's host
    seconds and then their total; raises [Invalid_argument] on unknown
    ids. Each experiment gets [scale] and a runner ({!Exp.runner})
    that instruments, exports and checks the cells it runs, each run's
    state kept in its own closure. With [~json:path], every run each
    experiment performs is captured and the collected results plus observability metrics ({!Report.run_json})
    are written to [path], grouped per experiment id. With
    [~check:true], every run's complete event stream is checked
    online, through the bounded-memory streaming checker riding the
    trace sink ({!Tm2c_check.Stream}); failures are reported on
    stderr. Checked runs also get a liveness watchdog
    ({!Tm2c_core.Runtime.enable_watchdog}): a run making no progress
    is cut short, flagged by the monitor's stuck detection, and the
    remaining experiments are skipped — the JSON written is then a
    partial report. Returns the total number of checker violations
    plus wedged runs (0 without [~check]). *)
val run_ids : ?json:string -> ?check:bool -> string list -> Exp.scale -> int
