type core_id = int

type addr = int

type conflict = Raw | Waw | War

let conflict_to_string = function Raw -> "RAW" | Waw -> "WAW" | War -> "WAR"

let conflict_of_string = function
  | "RAW" -> Some Raw
  | "WAW" -> Some Waw
  | "WAR" -> Some War
  | _ -> None

type shed_reason = Shed_queue_full | Shed_no_tokens | Shed_deadline

let shed_reason_to_string = function
  | Shed_queue_full -> "QUEUE"
  | Shed_no_tokens -> "TOKENS"
  | Shed_deadline -> "DEADLINE"

let shed_reason_of_string = function
  | "QUEUE" -> Some Shed_queue_full
  | "TOKENS" -> Some Shed_no_tokens
  | "DEADLINE" -> Some Shed_deadline
  | _ -> None

module Status = struct
  type state = Pending | Committing | Aborted

  let state_code = function Pending -> 0 | Committing -> 1 | Aborted -> 2

  let encode ~attempt state = (attempt * 4) + state_code state

  let decode v =
    let state =
      match v land 3 with
      | 0 -> Pending
      | 1 -> Committing
      | 2 -> Aborted
      | _ -> invalid_arg "Status.decode: invalid state code"
    in
    (v / 4, state)
end

type cm_meta = {
  m_core : core_id;
  m_attempt : int;
  m_offset_ns : float;
  m_committed : int;
  m_effective_ns : float;
}

type holder = {
  h_core : core_id;
  h_attempt : int;
  h_committed : int;
  h_clock : holder_clock;
}

and holder_clock = {
  h_est_start_ns : float;
  h_effective_ns : float;
  h_granted_ns : float;
}
