(* FairCM liveness monitor: bound the abort chains.

   The contention managers promise progress — FairCM by effective-time
   priority aging (an aborted core's priority only improves), the
   greedy family by timestamp order. Under any of them a single atomic
   block should commit within a bounded number of attempts for the
   workloads we run. The monitor follows each core's attempts as they
   close and measures the runs of consecutive aborts between commits;
   a run reaching the configured budget is reported with its span, so
   a starvation or livelock regression in the CM shows up as a checker
   failure instead of a silently slow run. A run still open at the
   horizon counts: starvation at the end of the run is starvation.

   The monitor also flags wedged cores: a core whose final attempt is
   still Unfinished at the horizon and has been so for at least
   [stuck_after_ns] made no progress at all — the signature of a dead
   lock server nobody failed over from. Crashed cores are exempt
   (their open attempt is the crash, not a wedge), and the check is
   off unless armed ([stuck_after_ns = infinity]) because run-horizon
   truncation legitimately leaves recent attempts open.

   One online monitor serves both drivers: the batch checker and the
   streaming checker feed it from their history builder's [on_close].
   A core's attempts close in the order they started, so the per-core
   state is one open run and, when the latest closed attempt is still
   open, that attempt. The state copies numbers and times out of the
   attempts, never a pointer: a closed attempt referenced from this
   long-lived state would be promoted to the major heap, one per core
   per minor collection (9 MB more peak heap on the checked 48-core
   hash table). The times sit in a float-only record, which OCaml
   stores unboxed, so extending a run allocates nothing. *)

type chain = {
  ch_core : int;
  ch_len : int;  (* consecutive aborted attempts *)
  ch_first_attempt : int;
  ch_start_time : float;
  ch_end_time : float;
}

type stuck = {
  st_core : int;
  st_attempt : int;  (* the attempt wedged open at the horizon *)
  st_since_ns : float;  (* when that attempt started *)
  st_idle_ns : float;  (* horizon minus the attempt's last activity *)
}

type report = {
  budget : int;
  max_chain : chain option;  (* the longest abort run observed *)
  violations : chain list;  (* runs whose length reached the budget *)
  stuck : stuck list;  (* cores wedged open at the horizon *)
}

let default_budget = 1000

let default_stuck_after_ns = 1e6

let ok r = r.violations = [] && r.stuck = []

type times = {
  mutable run_start : float;  (* start of the run's first abort *)
  mutable run_end : float;  (* end of its latest abort *)
  mutable open_since : float;  (* start of the open attempt *)
  mutable open_active : float;  (* its last activity *)
}

type core = {
  mutable run_len : int;  (* aborts since the core's last commit *)
  mutable run_first : int;  (* attempt number of the run's first abort *)
  mutable is_open : bool;  (* the latest closed attempt is Unfinished *)
  mutable open_attempt : int;  (* its number *)
  times : times;
}

type t = {
  budget : int;
  cores : (int, core) Hashtbl.t;
  mutable max_chain : chain option;
  mutable violations : chain list;
}

let create ~budget =
  { budget; cores = Hashtbl.create 64; max_chain = None; violations = [] }

(* [Hashtbl.find], not [find_opt]: finding allocates nothing. *)
let core_state t core =
  match Hashtbl.find t.cores core with
  | c -> c
  | exception Not_found ->
      let c =
        {
          run_len = 0;
          run_first = 0;
          is_open = false;
          open_attempt = 0;
          times = { run_start = 0.0; run_end = 0.0; open_since = 0.0; open_active = 0.0 };
        }
      in
      Hashtbl.add t.cores core c;
      c

(* The fixed order of chains: longest first, then by core, then by
   first attempt (a core's attempt numbers only grow). Both drivers
   report the same order whatever order the cores' closes interleave
   in, and [max_chain] is the first chain of it. *)
let order a b =
  if a.ch_len <> b.ch_len then Int.compare b.ch_len a.ch_len
  else if a.ch_core <> b.ch_core then Int.compare a.ch_core b.ch_core
  else Int.compare a.ch_first_attempt b.ch_first_attempt

let chain_of core c =
  {
    ch_core = core;
    ch_len = c.run_len;
    ch_first_attempt = c.run_first;
    ch_start_time = c.times.run_start;
    ch_end_time = c.times.run_end;
  }

(* Idempotent: the run is emptied, so [finish] may run twice. *)
let end_run t core c =
  let ch = chain_of core c in
  (match t.max_chain with
  | Some m when order ch m >= 0 -> ()
  | _ -> t.max_chain <- Some ch);
  if ch.ch_len >= t.budget then t.violations <- ch :: t.violations;
  c.run_len <- 0

(* Last recorded instant the attempt did anything: start, granted
   reads, publish. A long-lived transaction still traversing its
   structure reads continuously, so it never looks idle; a core whose
   lock server died hears nothing and its clock stops here. *)
let last_activity (a : History.attempt) =
  List.fold_left
    (fun acc (r : History.read) -> Float.max acc r.History.r_time)
    (Float.max a.History.a_start_time a.History.a_publish_time)
    a.History.a_reads

let close t (a : History.attempt) =
  let core = a.History.a_core in
  let c = core_state t core in
  match a.History.a_outcome with
  | History.Aborted _ ->
      if c.run_len = 0 then begin
        c.run_first <- a.History.a_number;
        c.times.run_start <- a.History.a_start_time
      end;
      c.run_len <- c.run_len + 1;
      c.times.run_end <- a.History.a_end_time;
      c.is_open <- false
  | History.Committed _ ->
      if c.run_len > 0 then end_run t core c;
      c.is_open <- false
  | History.Unfinished ->
      c.is_open <- true;
      c.open_attempt <- a.History.a_number;
      c.times.open_since <- a.History.a_start_time;
      c.times.open_active <- last_activity a

let finish t ~horizon ~crashed ~stuck_after_ns =
  let stuck = ref [] in
  Tm2c_engine.Det.iter
    (fun core c ->
      if c.run_len > 0 then end_run t core c;
      let idle = horizon -. c.times.open_active in
      if c.is_open && (not (List.mem core crashed)) && idle >= stuck_after_ns then
        stuck :=
          {
            st_core = core;
            st_attempt = c.open_attempt;
            st_since_ns = c.times.open_since;
            st_idle_ns = idle;
          }
          :: !stuck)
    t.cores;
  {
    budget = t.budget;
    max_chain = t.max_chain;
    violations = List.sort order t.violations;
    stuck = List.rev !stuck;
  }

let pp_witness fmt (r : report) =
  if r.violations <> [] then begin
    Format.fprintf fmt "@.== liveness violations ==@.";
    List.iter
      (fun ch ->
        Format.fprintf fmt
          "  core %d aborted %d consecutive attempts (from attempt %d, \
           %.0fns..%.0fns) — budget %d@."
          ch.ch_core ch.ch_len ch.ch_first_attempt ch.ch_start_time
          ch.ch_end_time r.budget)
      r.violations
  end;
  if r.stuck <> [] then begin
    Format.fprintf fmt "@.== wedged cores ==@.";
    List.iter
      (fun s ->
        Format.fprintf fmt
          "  core %d: attempt %d open since %.0fns, no progress for %.0fns — \
           likely waiting on a dead lock server@."
          s.st_core s.st_attempt s.st_since_ns s.st_idle_ns)
      r.stuck
  end
