(* Typed trace events spanning the whole stack. Recorded into the
   environment's ring buffer ([System.env.trace]) only when tracing is
   enabled; every emit site guards with [Trace.enabled] so the
   constructors below are never allocated on untraced runs. *)

open Types

type t =
  | Tx_start of { core : core_id; attempt : int; elastic : bool }
      (** [elastic] marks attempts running under an elastic mode: their
          read traces are partial (validated reads are plain memory
          accesses) and their windows may release read locks early, so
          the checkers apply only the write-side rules to them *)
  | Tx_read of { core : core_id; addr : addr; granted : bool; value : int }
      (** read-lock round trip completed (elastic validated reads do
          not appear: they are plain memory accesses). When granted,
          the event is stamped at the instant the memory sample
          returned and [value] is the word read — the serializability
          oracle replays versioned memory against exactly these
          (time, value) pairs. [value] is 0 on a refused lock. *)
  | Tx_write of { core : core_id; addr : addr; value : int }
      (** write buffered; emitted on every store, so the last event
          per address within an attempt carries the value the commit
          will publish *)
  | Tx_commit_begin of { core : core_id; attempt : int; n_writes : int }
  | Host_write of { addr : addr; value : int }
      (** a host-side store outside any transaction: benchmark setup
          (populate) or private-node initialization under weak
          atomicity (the node becomes reachable only when a commit
          publishes a pointer to it). The serializability oracle
          installs these as external versions — without them, node
          reuse after [Alloc.free] would make transactional reads of
          re-initialized words look like value corruption. *)
  | Rlock_released of { core : core_id; addr : addr }
      (** elastic-early dropped the oldest window entry: its read lock
          is released before the attempt ends (normal attempts release
          only at commit/abort, which the checkers infer from the
          attempt-end events) *)
  | Wlock_granted of { core : core_id; addrs : addr list }
      (** a write-lock batch was granted to this core (eager stores
          acquire one address at a time; lazy commits acquire per
          owner node) — the lockset checker's growing-phase witness *)
  | Tx_publish of { core : core_id; attempt : int; n_writes : int }
      (** the attempt passed its status CAS and is about to apply its
          write set: stamped at the exact instant the new values
          become visible to other cores ([Shmem.write_burst] applies
          data immediately and charges latency afterwards) *)
  | Tx_committed of { core : core_id; attempt : int; duration_ns : float }
  | Tx_aborted of { core : core_id; attempt : int; conflict : conflict option }
      (** [conflict = None] is the status-CAS abort path: a remote
          contention manager aborted this attempt by CAS-ing its
          status word ([Enemy_aborted] on the server side), and the
          victim discovered it in [Tx.check_status] or at its own
          commit CAS. Rendered as ["STATUS"] everywhere a conflict
          label is surfaced (trace dumps, JSON, Perfetto). *)
  | Lock_conflict of {
      server : core_id;
      requester : core_id;
      enemy : core_id;
      addr : addr;
      conflict : conflict;
      requester_wins : bool;
    }  (** a contention-manager decision at a DTM core *)
  | Enemy_aborted of {
      server : core_id;
      winner : core_id;
      victim : core_id;
      addr : addr;
      conflict : conflict;
    }  (** the winner's abort CAS landed on the victim's status word *)
  | Req_sent of {
      core : core_id;
      server : core_id;
      req_id : int;
      kind : string;
      n_addrs : int;
    }  (** an application core put a service request on the wire *)
  | Service of {
      server : core_id;
      requester : core_id;
      req_id : int;
      kind : string;
      queue_depth : int;
      occupancy : int;
    }
      (** a DTM core picked up a request: its input-queue depth and
          lock-table occupancy at that instant *)
  | Service_done of { server : core_id; requester : core_id; req_id : int }
      (** the DTM core finished processing (response, if any, sent) *)
  | Barrier of { core : core_id }
  | Msg_dropped of { src : core_id; dst : core_id }
      (** fault injection lost a message on the [src]->[dst] link *)
  | Msg_duplicated of { src : core_id; dst : core_id }
      (** fault injection delivered a message twice on [src]->[dst] *)
  | Req_resent of { core : core_id; server : core_id; req_id : int; nth : int }
      (** the requester's timeout fired and it resent request [req_id]
          (same sequence number, so the server can absorb duplicates);
          [nth] counts resends of this request, starting at 1 *)
  | Core_crashed of { core : core_id; attempt : int }
      (** crash-stop: the core dies at an operation boundary, releasing
          nothing — its open attempt ([attempt], or -1 outside any
          transaction) stays Unfinished and its locks are orphaned
          until lease reclamation revokes them *)
  | Lease_reclaimed of {
      server : core_id;
      victim : core_id;
      addr : addr;
      aborted : bool;
    }
      (** the server revoked [victim]'s lock on [addr] because its
          lease expired (the holder crashed or its release was lost);
          guarded by the status-word CAS, so a committing victim is
          never reclaimed. [aborted] is true when the CAS landed (a
          live pending victim was killed, like [Enemy_aborted]) and
          false when the entry was already stale *)
  | Server_crashed of { server : core_id }
      (** DS-lock server crash-stop ([scrash=] fault): the server stops
          serving at this instant; requests already in its mailbox and
          any sent later are never answered *)
  | Epoch_bumped of { part : int; epoch : int; by : core_id }
      (** a client gave up on partition [part]'s current owner after
          repeated resend timeouts: the partition epoch advances to
          [epoch] and routing flips to the designated backup *)
  | Replica_applied of { server : core_id; src : core_id; part : int; n_addrs : int }
      (** the backup [server] applied one replicated lock-table
          mutation for partition [part] shipped by primary [src] *)
  | Failover_done of { server : core_id; part : int; epoch : int; merged : int }
      (** the promoted backup reconstructed partition [part]'s
          authoritative lock table from its replica log ([merged]
          addresses) on the first post-failover request it served *)
  | Stale_epoch_rejected of {
      server : core_id;
      core : core_id;
      req_epoch : int;
      cur_epoch : int;
    }
      (** a request stamped with [req_epoch] reached a server whose
          view of the partition is at [cur_epoch] (or which no longer
          owns the partition): refused without touching the lock
          table, so a zombie primary can never grant a conflicting
          lock *)
  | Req_admitted of { core : core_id; tenant : int; queue_depth : int }
      (** an open-loop arrival passed admission control onto [core]'s
          bounded queue; [queue_depth] is the depth after enqueue *)
  | Req_shed of {
      core : core_id;
      tenant : int;
      reason : shed_reason;
      retry_after_ns : float;
    }
      (** admission control refused the arrival ([retry_after_ns] is
          the backoff hint returned to the client) *)
  | Req_expired of { core : core_id; tenant : int; waited_ns : float }
      (** a queued request exceeded the queue deadline and was dropped
          at dequeue, before any transaction ran for it *)
  | Retry_budget_exhausted of { core : core_id; tenant : int; retries : int }
      (** the client's bounded retry budget ran out: the request fails
          permanently instead of feeding a retry storm *)

(* [None] is the status-CAS abort path (see [Tx_aborted] above): the
   label must match the JSON export's by_conflict key and the stats
   field [aborts_status]. *)
let conflict_opt_to_string = function
  | Some c -> conflict_to_string c
  | None -> "STATUS"

type value = Int of int | Float of float | Bool of bool | Str of string | Ints of int list

type ty = T_int | T_float | T_bool | T_str | T_ints

type kind = {
  tag : string;
  name : string;
  actor : string option;
  fields : (string * ty) list;
}

let row ?(actor = "core") tag name fields = { tag; name; actor = Some actor; fields }

let i n = (n, T_int)
let f n = (n, T_float)
let b n = (n, T_bool)
let s n = (n, T_str)

(* One row per constructor; the field lists are the history log's
   column order. *)
let tx_start = row "TXS" "tx_start" [ i "core"; i "attempt"; b "elastic" ]
let tx_read = row "TXR" "tx_read" [ i "core"; i "addr"; b "granted"; i "value" ]
let tx_write = row "TXW" "tx_write" [ i "core"; i "addr"; i "value" ]
let tx_commit_begin = row "CB" "tx_commit_begin" [ i "core"; i "attempt"; i "n_writes" ]

let host_write =
  { tag = "HW"; name = "host_write"; actor = None; fields = [ i "addr"; i "value" ] }

let rlock_released = row "RLR" "rlock_released" [ i "core"; i "addr" ]
let wlock_granted = row "WLK" "wlock_granted" [ i "core"; ("addrs", T_ints) ]
let tx_publish = row "PUB" "tx_publish" [ i "core"; i "attempt"; i "n_writes" ]
let tx_committed = row "COM" "tx_committed" [ i "core"; i "attempt"; f "duration_ns" ]
let tx_aborted = row "ABO" "tx_aborted" [ i "core"; i "attempt"; s "conflict" ]

let lock_conflict =
  row ~actor:"server" "CFL" "lock_conflict"
    [ i "server"; i "requester"; i "enemy"; i "addr"; s "conflict"; b "requester_wins" ]

let enemy_aborted =
  row ~actor:"server" "ENA" "enemy_aborted"
    [ i "server"; i "winner"; i "victim"; i "addr"; s "conflict" ]

let req_sent =
  row "REQ" "req_sent" [ i "core"; i "server"; i "req_id"; s "kind"; i "n_addrs" ]

let service =
  row ~actor:"server" "SRV" "service"
    [ i "server"; i "requester"; i "req_id"; s "kind"; i "queue_depth"; i "occupancy" ]

let service_done =
  row ~actor:"server" "SRD" "service_done" [ i "server"; i "requester"; i "req_id" ]

let barrier = row "BAR" "barrier" [ i "core" ]
let msg_dropped = row ~actor:"src" "DRP" "msg_dropped" [ i "src"; i "dst" ]
let msg_duplicated = row ~actor:"src" "DUP" "msg_duplicated" [ i "src"; i "dst" ]
let req_resent = row "RSN" "req_resent" [ i "core"; i "server"; i "req_id"; i "nth" ]
let core_crashed = row "CRS" "core_crashed" [ i "core"; i "attempt" ]

let lease_reclaimed =
  row ~actor:"server" "LSR" "lease_reclaimed"
    [ i "server"; i "victim"; i "addr"; b "aborted" ]

let server_crashed = row ~actor:"server" "SCR" "server_crashed" [ i "server" ]
let epoch_bumped = row ~actor:"by" "EPB" "epoch_bumped" [ i "part"; i "epoch"; i "by" ]

let replica_applied =
  row ~actor:"server" "RPA" "replica_applied"
    [ i "server"; i "src"; i "part"; i "n_addrs" ]

let failover_done =
  row ~actor:"server" "FOD" "failover_done"
    [ i "server"; i "part"; i "epoch"; i "merged" ]

let stale_epoch_rejected =
  row ~actor:"server" "SER" "stale_epoch_rejected"
    [ i "server"; i "core"; i "req_epoch"; i "cur_epoch" ]

let req_admitted = row "ADM" "req_admitted" [ i "core"; i "tenant"; i "queue_depth" ]

let req_shed =
  row "SHD" "req_shed" [ i "core"; i "tenant"; s "reason"; f "retry_after_ns" ]

let req_expired = row "EXP" "req_expired" [ i "core"; i "tenant"; f "waited_ns" ]

let retry_budget_exhausted =
  row "RBX" "retry_budget_exhausted" [ i "core"; i "tenant"; i "retries" ]

let kinds =
  [
    tx_start; tx_read; tx_write; tx_commit_begin; host_write; rlock_released;
    wlock_granted; tx_publish; tx_committed; tx_aborted; lock_conflict;
    enemy_aborted; req_sent; service; service_done; barrier; msg_dropped;
    msg_duplicated; req_resent; core_crashed; lease_reclaimed; server_crashed;
    epoch_bumped; replica_applied; failover_done; stale_epoch_rejected;
    req_admitted; req_shed; req_expired; retry_budget_exhausted;
  ]

(* Every constructor carries an inline record, so each value is a block
   whose tag is the constructor's position among the declarations above
   — the recorder's per-event index without a second dispatch. A unit
   test pins [index] against the row [describe] returns. *)
let index (ev : t) = Obj.tag (Obj.repr ev)

(* The one exhaustive dispatch on [t] for output: every exporter goes
   through it, and the exporter lint checks that it names every
   constructor with no catch-all. *)
let describe ev =
  match ev with
  | Tx_start { core; attempt; elastic } ->
      (tx_start, [ Int core; Int attempt; Bool elastic ])
  | Tx_read { core; addr; granted; value } ->
      (tx_read, [ Int core; Int addr; Bool granted; Int value ])
  | Tx_write { core; addr; value } -> (tx_write, [ Int core; Int addr; Int value ])
  | Tx_commit_begin { core; attempt; n_writes } ->
      (tx_commit_begin, [ Int core; Int attempt; Int n_writes ])
  | Host_write { addr; value } -> (host_write, [ Int addr; Int value ])
  | Rlock_released { core; addr } -> (rlock_released, [ Int core; Int addr ])
  | Wlock_granted { core; addrs } -> (wlock_granted, [ Int core; Ints addrs ])
  | Tx_publish { core; attempt; n_writes } ->
      (tx_publish, [ Int core; Int attempt; Int n_writes ])
  | Tx_committed { core; attempt; duration_ns } ->
      (tx_committed, [ Int core; Int attempt; Float duration_ns ])
  | Tx_aborted { core; attempt; conflict } ->
      (tx_aborted, [ Int core; Int attempt; Str (conflict_opt_to_string conflict) ])
  | Lock_conflict { server; requester; enemy; addr; conflict; requester_wins } ->
      ( lock_conflict,
        [
          Int server; Int requester; Int enemy; Int addr;
          Str (conflict_to_string conflict); Bool requester_wins;
        ] )
  | Enemy_aborted { server; winner; victim; addr; conflict } ->
      ( enemy_aborted,
        [
          Int server; Int winner; Int victim; Int addr; Str (conflict_to_string conflict);
        ] )
  | Req_sent { core; server; req_id; kind; n_addrs } ->
      (req_sent, [ Int core; Int server; Int req_id; Str kind; Int n_addrs ])
  | Service { server; requester; req_id; kind; queue_depth; occupancy } ->
      ( service,
        [
          Int server; Int requester; Int req_id; Str kind; Int queue_depth; Int occupancy;
        ] )
  | Service_done { server; requester; req_id } ->
      (service_done, [ Int server; Int requester; Int req_id ])
  | Barrier { core } -> (barrier, [ Int core ])
  | Msg_dropped { src; dst } -> (msg_dropped, [ Int src; Int dst ])
  | Msg_duplicated { src; dst } -> (msg_duplicated, [ Int src; Int dst ])
  | Req_resent { core; server; req_id; nth } ->
      (req_resent, [ Int core; Int server; Int req_id; Int nth ])
  | Core_crashed { core; attempt } -> (core_crashed, [ Int core; Int attempt ])
  | Lease_reclaimed { server; victim; addr; aborted } ->
      (lease_reclaimed, [ Int server; Int victim; Int addr; Bool aborted ])
  | Server_crashed { server } -> (server_crashed, [ Int server ])
  | Epoch_bumped { part; epoch; by } -> (epoch_bumped, [ Int part; Int epoch; Int by ])
  | Replica_applied { server; src; part; n_addrs } ->
      (replica_applied, [ Int server; Int src; Int part; Int n_addrs ])
  | Failover_done { server; part; epoch; merged } ->
      (failover_done, [ Int server; Int part; Int epoch; Int merged ])
  | Stale_epoch_rejected { server; core; req_epoch; cur_epoch } ->
      ( stale_epoch_rejected,
        [ Int server; Int core; Int req_epoch; Int cur_epoch ] )
  | Req_admitted { core; tenant; queue_depth } ->
      (req_admitted, [ Int core; Int tenant; Int queue_depth ])
  | Req_shed { core; tenant; reason; retry_after_ns } ->
      ( req_shed,
        [
          Int core; Int tenant; Str (shed_reason_to_string reason); Float retry_after_ns;
        ] )
  | Req_expired { core; tenant; waited_ns } ->
      (req_expired, [ Int core; Int tenant; Float waited_ns ])
  | Retry_budget_exhausted { core; tenant; retries } ->
      (retry_budget_exhausted, [ Int core; Int tenant; Int retries ])

exception Bad_fields of string

let label what of_string s =
  match of_string s with
  | Some v -> v
  | None -> raise (Bad_fields (Printf.sprintf "unknown %s label %S" what s))

let conflict_label = label "conflict" conflict_of_string

let of_fields tag vs =
  try
    Ok
      (match (tag, vs) with
      | "TXS", [ Int core; Int attempt; Bool elastic ] ->
          Tx_start { core; attempt; elastic }
      | "TXR", [ Int core; Int addr; Bool granted; Int value ] ->
          Tx_read { core; addr; granted; value }
      | "TXW", [ Int core; Int addr; Int value ] -> Tx_write { core; addr; value }
      | "CB", [ Int core; Int attempt; Int n_writes ] ->
          Tx_commit_begin { core; attempt; n_writes }
      | "HW", [ Int addr; Int value ] -> Host_write { addr; value }
      | "RLR", [ Int core; Int addr ] -> Rlock_released { core; addr }
      | "WLK", [ Int core; Ints addrs ] -> Wlock_granted { core; addrs }
      | "PUB", [ Int core; Int attempt; Int n_writes ] ->
          Tx_publish { core; attempt; n_writes }
      | "COM", [ Int core; Int attempt; Float duration_ns ] ->
          Tx_committed { core; attempt; duration_ns }
      | "ABO", [ Int core; Int attempt; Str c ] ->
          let conflict = if c = "STATUS" then None else Some (conflict_label c) in
          Tx_aborted { core; attempt; conflict }
      | ( "CFL",
          [ Int server; Int requester; Int enemy; Int addr; Str c; Bool requester_wins ] )
        ->
          let conflict = conflict_label c in
          Lock_conflict { server; requester; enemy; addr; conflict; requester_wins }
      | "ENA", [ Int server; Int winner; Int victim; Int addr; Str c ] ->
          Enemy_aborted { server; winner; victim; addr; conflict = conflict_label c }
      | "REQ", [ Int core; Int server; Int req_id; Str kind; Int n_addrs ] ->
          Req_sent { core; server; req_id; kind; n_addrs }
      | ( "SRV",
          [
            Int server; Int requester; Int req_id; Str kind; Int queue_depth; Int occupancy;
          ] ) ->
          Service { server; requester; req_id; kind; queue_depth; occupancy }
      | "SRD", [ Int server; Int requester; Int req_id ] ->
          Service_done { server; requester; req_id }
      | "BAR", [ Int core ] -> Barrier { core }
      | "DRP", [ Int src; Int dst ] -> Msg_dropped { src; dst }
      | "DUP", [ Int src; Int dst ] -> Msg_duplicated { src; dst }
      | "RSN", [ Int core; Int server; Int req_id; Int nth ] ->
          Req_resent { core; server; req_id; nth }
      | "CRS", [ Int core; Int attempt ] -> Core_crashed { core; attempt }
      | "LSR", [ Int server; Int victim; Int addr; Bool aborted ] ->
          Lease_reclaimed { server; victim; addr; aborted }
      | "SCR", [ Int server ] -> Server_crashed { server }
      | "EPB", [ Int part; Int epoch; Int by ] -> Epoch_bumped { part; epoch; by }
      | "RPA", [ Int server; Int src; Int part; Int n_addrs ] ->
          Replica_applied { server; src; part; n_addrs }
      | "FOD", [ Int server; Int part; Int epoch; Int merged ] ->
          Failover_done { server; part; epoch; merged }
      | "SER", [ Int server; Int core; Int req_epoch; Int cur_epoch ] ->
          Stale_epoch_rejected { server; core; req_epoch; cur_epoch }
      | "ADM", [ Int core; Int tenant; Int queue_depth ] ->
          Req_admitted { core; tenant; queue_depth }
      | "SHD", [ Int core; Int tenant; Str r; Float retry_after_ns ] ->
          let reason = label "shed reason" shed_reason_of_string r in
          Req_shed { core; tenant; reason; retry_after_ns }
      | "EXP", [ Int core; Int tenant; Float waited_ns ] ->
          Req_expired { core; tenant; waited_ns }
      | "RBX", [ Int core; Int tenant; Int retries ] ->
          Retry_budget_exhausted { core; tenant; retries }
      | _ -> raise (Bad_fields (Printf.sprintf "no %S record with these fields" tag)))
  with Bad_fields msg -> Error msg

module Trace = Tm2c_engine.Trace

(* Ring columns of one row: a float takes a float column, an int list
   two int columns (start and length in the side ring), anything else
   one int column. *)
let columns k =
  List.fold_left
    (fun (ni, nf) (_, ty) ->
      match ty with
      | T_int | T_bool | T_str -> (ni + 1, nf)
      | T_ints -> (ni + 2, nf)
      | T_float -> (ni, nf + 1))
    (0, 0) k.fields

let rec put_values c = function
  | [] -> ()
  | v :: vs ->
      (match v with
      | Int n -> Trace.put_int c n
      | Bool v -> Trace.put_int c (Bool.to_int v)
      | Float x -> Trace.put_float c x
      | Str v -> Trace.put_str c v
      | Ints l -> Trace.put_ints c l);
      put_values c vs

let rec get_values c = function
  | [] -> []
  | (_, ty) :: tys ->
      let v =
        match ty with
        | T_int -> Int (Trace.get_int c)
        | T_bool -> Bool (Trace.get_int c <> 0)
        | T_float -> Float (Trace.get_float c)
        | T_str -> Str (Trace.get_str c)
        | T_ints -> Ints (Trace.get_ints c)
      in
      v :: get_values c tys

let ring_codec =
  let ints, floats =
    List.fold_left
      (fun (mi, mf) k ->
        let ni, nf = columns k in
        (max mi ni, max mf nf))
      (0, 0) kinds
  in
  {
    (* The first int column is the row index. *)
    Trace.int_columns = 1 + ints;
    float_columns = floats;
    encode =
      (fun c ev ->
        let _, vs = describe ev in
        Trace.put_int c (index ev);
        put_values c vs);
    decode =
      (fun c ->
        let k = List.nth kinds (Trace.get_int c) in
        match of_fields k.tag (get_values c k.fields) with
        | Ok ev -> ev
        | Error msg -> invalid_arg ("Event.ring_codec: " ^ msg));
  }

let split k vs =
  let is_actor name = match k.actor with Some a -> String.equal a name | None -> false in
  List.fold_right2
    (fun (name, _) v (actor, rest) ->
      match v with
      | Int core when is_actor name -> (Some core, rest)
      | _ -> (actor, (name, v) :: rest))
    k.fields vs (None, [])

let pp_value fmt = function
  | Int n -> Format.pp_print_int fmt n
  | Float x -> Format.fprintf fmt "%.0f" x
  | Bool v -> Format.pp_print_bool fmt v
  | Str v -> Format.pp_print_string fmt v
  | Ints l -> Format.pp_print_string fmt (String.concat "," (List.map string_of_int l))

let pp fmt ev =
  let k, vs = describe ev in
  let actor, rest = split k vs in
  let actor =
    match (k.actor, actor) with
    | Some name, Some core -> Printf.sprintf "%s=%d" name core
    | _ -> "-"
  in
  Format.fprintf fmt "%-9s %s" actor k.name;
  List.iter (fun (name, v) -> Format.fprintf fmt " %s=%a" name pp_value v) rest

let to_string ev = Format.asprintf "%a" pp ev
