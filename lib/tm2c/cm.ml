open Types

type policy = No_cm | Backoff_retry | Offset_greedy | Wholly | Fair_cm

let all = [ No_cm; Backoff_retry; Offset_greedy; Wholly; Fair_cm ]

let name = function
  | No_cm -> "No CM"
  | Backoff_retry -> "Back-off-Retry"
  | Offset_greedy -> "Offset-Greedy"
  | Wholly -> "Wholly"
  | Fair_cm -> "FairCM"

let of_string s =
  match String.lowercase_ascii s with
  | "nocm" | "no-cm" | "no cm" | "none" -> Some No_cm
  | "backoff" | "backoff-retry" | "back-off-retry" -> Some Backoff_retry
  | "offset-greedy" | "greedy" | "offsetgreedy" -> Some Offset_greedy
  | "wholly" -> Some Wholly
  | "faircm" | "fair" | "fair-cm" -> Some Fair_cm
  | _ -> None

let starvation_free = function
  | Wholly | Fair_cm -> true
  | No_cm | Backoff_retry | Offset_greedy -> false

let uses_backoff = function
  | Backoff_retry -> true
  | No_cm | Offset_greedy | Wholly | Fair_cm -> false

type decision = Requester_loses | Enemies_lose

(* Lexicographic (key, core-id) comparison: smaller key means higher
   priority; core ids break ties, yielding the total order that rule
   (b) of Property 1 requires. *)
let beats policy a b =
  match policy with
  | No_cm | Backoff_retry -> false
  | Offset_greedy ->
      let ka = a.h_clock.h_est_start_ns and kb = b.h_clock.h_est_start_ns in
      ka < kb || (ka = kb && a.h_core < b.h_core)
  | Wholly ->
      a.h_committed < b.h_committed
      || (a.h_committed = b.h_committed && a.h_core < b.h_core)
  | Fair_cm ->
      let ka = a.h_clock.h_effective_ns and kb = b.h_clock.h_effective_ns in
      ka < kb || (ka = kb && a.h_core < b.h_core)

(* The enemy responsible for a Requester_loses decision: the first
   enemy the requester fails to beat (under no-CM/Back-off-Retry the
   requester never wins, so the first enemy is charged). Used for
   abort-causality attribution, not by the protocol itself. *)
let first_blocker policy ~requester ~enemies =
  match enemies with
  | [] -> invalid_arg "Cm.first_blocker: no enemies"
  | hd :: _ -> (
      match policy with
      | No_cm | Backoff_retry -> hd
      | Offset_greedy | Wholly | Fair_cm -> (
          match List.find_opt (fun e -> not (beats policy requester e)) enemies with
          | Some e -> e
          | None -> hd))

let decide policy ~requester ~enemies =
  assert (enemies <> []);
  match policy with
  | No_cm | Backoff_retry -> Requester_loses
  | Offset_greedy | Wholly | Fair_cm ->
      if List.for_all (fun enemy -> beats policy requester enemy) enemies then
        Enemies_lose
      else Requester_loses
