(* Abort-causality bookkeeping: who aborted whom, on which address,
   split by conflict type. Updated only when an abort actually happens
   (aborts are rare relative to messages), so it stays always-on.

   "Winner" is the transaction whose contention-manager priority
   prevailed; "victim" is the one told (or forced via status CAS) to
   abort. A requester that loses against several enemies is charged to
   the single enemy that beat it ({!Cm} exposes that enemy), so each
   abort is counted exactly once. *)

open Types

type key = { winner : core_id; victim : core_id; conflict : conflict }

type cell = { mutable count : int; mutable last_addr : addr }

type t = { causality : (key, cell) Hashtbl.t }

let create () = { causality = Hashtbl.create 64 }

let record t ~winner ~victim ~conflict ~addr =
  let key = { winner; victim; conflict } in
  match Hashtbl.find_opt t.causality key with
  | Some c ->
      c.count <- c.count + 1;
      c.last_addr <- addr
  | None -> Hashtbl.add t.causality key { count = 1; last_addr = addr }

(* (key, count, last sample address), most frequent first. *)
let dump t =
  Tm2c_engine.Det.fold
    (fun k c acc -> (k, c.count, c.last_addr) :: acc)
    t.causality []
  |> List.sort (fun (ka, a, _) (kb, b, _) ->
         if a <> b then compare b a else compare ka kb)

let by_conflict t =
  let totals = [ (Raw, ref 0); (Waw, ref 0); (War, ref 0) ] in
  Tm2c_engine.Det.iter
    (fun k c ->
      let r = List.assoc k.conflict totals in
      r := !r + c.count)
    t.causality;
  List.map (fun (conflict, r) -> (conflict, !r)) totals

let total t =
  Tm2c_engine.Det.fold (fun _ c acc -> acc + c.count) t.causality 0
