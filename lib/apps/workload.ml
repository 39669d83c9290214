open Tm2c_core
open Tm2c_engine
open Tm2c_noc

type result = {
  ops : int;
  duration_ms : float;
  throughput_ops_ms : float;
  commits : int;
  aborts : int;
  commit_rate : float;
  worst_attempts : int;
  messages : int;
  events : int;
  horizon_hit : bool;
}

let collect t ?(horizon_hit = false) ~events ~duration_ns () =
  (* Close out the flight recorder (final partial window + eof) before
     reading any totals; a no-op when none is installed. *)
  Runtime.finish_recorder t;
  let stats = Runtime.stats t in
  let ops = Stats.total_ops stats in
  let duration_ms = duration_ns /. 1e6 in
  {
    ops;
    duration_ms;
    throughput_ops_ms = (if duration_ms > 0.0 then float_of_int ops /. duration_ms else 0.0);
    commits = Stats.total_commits stats;
    aborts = Stats.total_aborts stats;
    commit_rate = Stats.commit_rate stats;
    worst_attempts = Stats.worst_attempts stats;
    messages = Network.sent (Runtime.env t).System.net;
    events;
    horizon_hit;
  }

let drive t ~duration_ns make_op =
  Runtime.start_services t;
  let sim = Runtime.sim t in
  let stats = Runtime.stats t in
  Array.iter
    (fun core ->
      let ctx = Runtime.app_ctx t core in
      let prng = Runtime.fork_prng t in
      let op = make_op core ctx prng in
      Runtime.spawn_app t core (fun () ->
          let cstats = Stats.core stats core in
          while Sim.now sim < duration_ns do
            op ();
            cstats.Stats.ops <- cstats.Stats.ops + 1;
            Runtime.poll_service t ~core
          done))
    (Runtime.app_cores t);
  let events = Runtime.run t ~until:duration_ns () in
  (* A core that completed zero operations over the whole window was
     terminated by the horizon without ever making progress (blocked
     forever or livelocked) — flag it instead of letting the near-zero
     throughput masquerade as a healthy measurement. *)
  let horizon_hit =
    Array.exists
      (fun core -> (Stats.core stats core).Stats.ops = 0)
      (Runtime.app_cores t)
  in
  collect t ~horizon_hit ~events ~duration_ns ()

let drive_seq t ~duration_ns make_op =
  let sim = Runtime.sim t in
  let stats = Runtime.stats t in
  let core = (Runtime.app_cores t).(0) in
  let prng = Runtime.fork_prng t in
  let op = make_op ~core prng in
  Runtime.spawn_app t core (fun () ->
      let cstats = Stats.core stats core in
      while Sim.now sim < duration_ns do
        op ();
        cstats.Stats.ops <- cstats.Stats.ops + 1
      done);
  let events = Runtime.run t ~until:duration_ns () in
  (* Let the in-flight operation finish (one fiber, no contention —
     this terminates right away): an operation split by the horizon
     would leave e.g. a half-applied transfer. *)
  let events = events + Runtime.run t () in
  collect t ~events ~duration_ns ()

let run_to_completion t ?(horizon_ns = 1e13) work =
  Runtime.start_services t;
  let sim = Runtime.sim t in
  let stats = Runtime.stats t in
  (* Explicit completion count: the simulator's spawned/finished tally
     also covers service fibers (which block forever by design), so
     only the work functions' own returns witness completion. *)
  let done_workers = ref 0 in
  (* With the service fibers still blocked, the clock ends on the
     horizon: the duration is when the last worker finished. *)
  let last_done_ns = ref 0.0 in
  Array.iter
    (fun core ->
      let ctx = Runtime.app_ctx t core in
      let prng = Runtime.fork_prng t in
      Runtime.spawn_app t core (fun () ->
          work core ctx prng;
          let cstats = Stats.core stats core in
          cstats.Stats.ops <- cstats.Stats.ops + 1;
          incr done_workers;
          Runtime.poll_service t ~core;
          last_done_ns := Sim.now sim))
    (Runtime.app_cores t);
  let events = Runtime.run t ~until:horizon_ns () in
  (* Work left unfinished means the safety horizon (or the watchdog)
     cut the run short: the reported duration is the horizon, not a
     completion time, and must not be read as one. *)
  let horizon_hit = !done_workers < Array.length (Runtime.app_cores t) in
  let duration_ns = if horizon_hit then Sim.now sim else !last_done_ns in
  collect t ~horizon_hit ~events ~duration_ns ()
