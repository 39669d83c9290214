(* tm2c-check: replay a recorded run history through the checkers.

   The input is the machine-readable history log written by
   tm2c-sim --history FILE (the complete event stream, not the 64K
   ring tail). The full oracle stack runs over it:

   - the serializability + opacity oracle, which reconstructs
     per-attempt read/write sets, replays serialized transactions
     against versioned memory, reports any conflict-graph cycle with
     a minimal witness, and snapshot-checks every aborted attempt's
     read prefix;
   - the DS-Lock protocol checker, which validates the two-phase
     locking discipline against a shadow lock table;
   - the liveness monitor, which bounds per-core abort chains.

   By default the streaming checker consumes the log line by line, so
   memory stays bounded by the run's concurrency window no matter how
   large the file is; --streaming=false loads the log and runs the
   batch oracle. Both number serialized transactions in publish order
   and print the same report, a conflict cycle's hops aside: each
   reports the cycle its own graph search finds. A log whose run armed
   wedge detection (tm2c-sim on a replicated or watchdog-cut run)
   carries the threshold, and both modes arm it.

   Exit status: 0 when every checker passes, 1 on violations,
   2 on an unreadable or malformed history log. *)

open Cmdliner
open Tm2c_check

(* The only step that depends on the mode: read the log into a
   verdict and its witness. *)
let judge path budget streaming =
  if streaming then begin
    let s = Stream.create ~liveness_budget:budget () in
    let stuck_after_ns = Histlog.iter_file path (Stream.feed s) in
    let v = Stream.finish ?stuck_after_ns s in
    (v, Stream.witness s)
  end
  else begin
    let events, stuck_after_ns = Histlog.load path in
    let r = Check.run_list ~liveness_budget:budget ?stuck_after_ns events in
    (r.Check.verdict, r.Check.witness)
  end

let run path budget streaming witness_file =
  match judge path budget streaming with
  | exception Sys_error msg ->
      Printf.eprintf "tm2c-check: %s\n" msg;
      exit 2
  | exception Failure msg ->
      Printf.eprintf "tm2c-check: %s: %s\n" path msg;
      exit 2
  | v, w ->
      if Stream.conclude ?witness_file v w then
        Format.printf "PASS: %d events, all checkers clean@." v.Stream.d_events
      else exit 1

let cmd =
  let path =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"HISTORY"
             ~doc:"History log written by tm2c-sim --history.")
  in
  let budget =
    Arg.(value & opt int Liveness.default_budget
         & info [ "budget" ] ~docv:"N"
             ~doc:"Liveness budget: a core aborting $(docv) consecutive \
                   attempts without a commit is a violation.")
  in
  let streaming =
    Arg.(value & opt bool true
         & info [ "streaming" ] ~docv:"BOOL"
             ~doc:"Consume the log line by line through the bounded-memory \
                   streaming checker (default). $(b,--streaming=false) loads \
                   the whole log and runs the batch oracle.")
  in
  let witness =
    Arg.(value & opt (some string) None
         & info [ "witness" ] ~docv:"FILE"
             ~doc:"On failure, also write the verdict and violation witness \
                   to $(docv).")
  in
  let doc = "Check a recorded TM2C run for serializability, opacity, protocol, and liveness violations" in
  Cmd.v (Cmd.info "tm2c-check" ~doc)
    Term.(const run $ path $ budget $ streaming $ witness)

let () = exit (Cmd.eval cmd)
