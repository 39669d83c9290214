(* DS-Lock protocol checker: replay the event stream against a shadow
   lock table and validate the two-phase discipline.

   The shadow is driven by the trace's grant/revoke/end events, not by
   the (untraced, fire-and-forget) release messages, so it must free
   locks no later than the real table does — otherwise a legal grant
   racing a release still in flight would look like a conflict. The
   release point differs per outcome: an aborting attempt sends its
   releases and emits [Tx_aborted] in the same instant, so the abort
   event precedes every arrival; a committing attempt sends them at
   its publish point and only emits [Tx_committed] after the
   write-burst latency, during which releases can already land and
   the freed addresses be re-granted. The shadow therefore drops an
   attempt's locks at [Tx_publish] (after the write-back-under-lock
   check) or at its abort, whichever comes first. A shadow conflict
   at a grant then means two attempts genuinely held incompatible
   locks at once.

   The checker is single-pass and incremental by construction: all
   state is the shadow table itself, whose size is bounded by the
   locks concurrently held plus the address working set — never by
   the run length — so the streaming checker feeds it directly.

   Rules enforced, in replay (sequence) order:

   - a granted read on an address write-locked by another live
     attempt is a visible-read violation (the writer should have been
     revoked first, with an [Enemy_aborted] preceding the grant) —
     unless the holder is already doomed (an earlier enemy CAS landed
     on it, possibly at another address): its status word reads
     Aborted, so servers revoke its stale entries on sight without a
     second [Enemy_aborted]. The shadow mirrors that revocation;
   - a write-lock grant on an address read- or write-locked by
     another live attempt is an exclusivity violation, with the same
     stale-entry exemption for doomed holders;
   - [Rlock_released] from a non-elastic attempt breaks two-phase
     locking (only elastic windows may shrink before the end);
   - at [Tx_publish], every address of the attempt's write set must
     be write-locked by it (write-back under lock);
   - an [Enemy_aborted] CAS landing on an attempt past its publish
     point, or on a core whose last attempt committed and whose next
     has not started, hit a committed victim — impossible when the
     protocol is honest, because the status word reads Committing
     from the commit CAS until the next attempt begins. A CAS landing
     on a core whose last attempt *aborted* is the benign in-flight
     revocation race: the victim's status word still reads (attempt,
     Pending) until its next [begin_attempt] rewrites it;
   - write grants are stamped with the current failover epoch (the
     max seen across [Epoch_bumped] events). A conflicting write
     grant over a holder granted in an *earlier* epoch — neither
     revoked nor reclaimed in between — is reported as an
     epoch-boundary violation: the signature of a zombie primary
     granting a lock the promoted backup has also granted. An honest
     server refuses such requests ([Stale_epoch_rejected]), so this
     fires only when the epoch check is broken. *)

open Tm2c_core

type violation = { v_seq : int; v_time : float; v_message : string }

type live = {
  l_attempt : int;
  l_elastic : bool;
  mutable l_published : bool;
  mutable l_doomed : bool;
      (* an enemy-abort CAS landed on this attempt: its remaining lock
         entries are stale and servers revoke them without a further
         [Enemy_aborted] *)
  mutable l_writes : Types.addr list;  (* addresses stored so far *)
}

type report = {
  violations : violation list;
  n_grants : int;  (* read + write lock grants replayed *)
}

let ok r = r.violations = []

type t = {
  mutable violations : violation list;  (* reversed *)
  mutable n_grants : int;
  mutable seq : int;
  (* addr -> cores holding a read lock / the core holding the write
     lock. A core may hold both (read-to-write upgrade). *)
  rlocks : (Types.addr, Types.core_id list) Hashtbl.t;
  wlocks : (Types.addr, Types.core_id) Hashtbl.t;
  (* core -> addresses it was granted a read or write lock on since
     its locks were last dropped. Entries go stale when a lock is
     revoked or re-granted elsewhere, so a drop re-checks ownership;
     the index only spares it a walk over the whole tables. *)
  granted : (Types.core_id, Types.addr list) Hashtbl.t;
  (* Failover epoch the current write lock on an address was granted
     in; [cur_epoch] follows the [Epoch_bumped] events. (Epochs are
     per partition in the protocol, but a write lock never moves
     between partitions, so the global max is a sound stamp.) *)
  wepoch : (Types.addr, int) Hashtbl.t;
  mutable cur_epoch : int;
  live : (Types.core_id, live) Hashtbl.t;
  (* How each core's most recent attempt ended — after a commit the
     status word reads Committing until the next begin, so an abort
     CAS landing then is a protocol violation; after an abort the
     word still reads Pending, so a landing CAS is the benign
     in-flight revocation race. *)
  last_outcome : (Types.core_id, [ `Committed | `Aborted ]) Hashtbl.t;
}

let create () =
  {
    violations = [];
    n_grants = 0;
    seq = 0;
    rlocks = Hashtbl.create 512;
    wlocks = Hashtbl.create 512;
    granted = Hashtbl.create 64;
    wepoch = Hashtbl.create 512;
    cur_epoch = 0;
    live = Hashtbl.create 64;
    last_outcome = Hashtbl.create 64;
  }

let violation t seq time fmt =
  Printf.ksprintf
    (fun m ->
      t.violations <- { v_seq = seq; v_time = time; v_message = m } :: t.violations)
    fmt

let readers t addr =
  match Hashtbl.find_opt t.rlocks addr with Some l -> l | None -> []

let doomed t core =
  match Hashtbl.find_opt t.live core with
  | Some l -> l.l_doomed
  | None -> false

let note_grant t core addr =
  let l = match Hashtbl.find_opt t.granted core with Some l -> l | None -> [] in
  Hashtbl.replace t.granted core (addr :: l)

let add_reader t addr core =
  if not (List.mem core (readers t addr)) then begin
    Hashtbl.replace t.rlocks addr (core :: readers t addr);
    note_grant t core addr
  end

let drop_reader t addr core =
  match List.filter (fun c -> c <> core) (readers t addr) with
  | [] -> Hashtbl.remove t.rlocks addr
  | l -> Hashtbl.replace t.rlocks addr l

(* O(locks the core was granted): only its own index entries are
   visited, and each frees a lock only if the core still holds it. *)
let drop_core_locks t core =
  match Hashtbl.find_opt t.granted core with
  | None -> ()
  | Some addrs ->
      Hashtbl.remove t.granted core;
      List.iter
        (fun a ->
          if List.mem core (readers t a) then drop_reader t a core;
          match Hashtbl.find_opt t.wlocks a with
          | Some w when w = core -> Hashtbl.remove t.wlocks a
          | Some _ | None -> ())
        addrs

let feed t time ev =
  let seq = t.seq in
  t.seq <- seq + 1;
  match ev with
  | Event.Tx_start { core; attempt; elastic } ->
      (* Nested-start anomalies are History's department; here we
         just reset the core's shadow state. *)
      drop_core_locks t core;
      Hashtbl.replace t.live core
        {
          l_attempt = attempt;
          l_elastic = elastic;
          l_published = false;
          l_doomed = false;
          l_writes = [];
        }
  | Event.Tx_read { core; addr; granted; _ } ->
      if granted then begin
        t.n_grants <- t.n_grants + 1;
        (match Hashtbl.find_opt t.wlocks addr with
        | Some w when w <> core ->
            if doomed t w then
              (* Stale entry of a doomed writer: the server revoked
                 it on sight (status already Aborted). *)
              Hashtbl.remove t.wlocks addr
            else
              violation t seq time
                "read grant to core %d on addr %d while core %d holds the \
                 write lock"
                core addr w
        | Some _ | None -> ());
        add_reader t addr core
      end
  | Event.Tx_write { core; addr; _ } -> (
      match Hashtbl.find_opt t.live core with
      | Some l ->
          if not (List.mem addr l.l_writes) then l.l_writes <- addr :: l.l_writes
      | None -> ())
  | Event.Wlock_granted { core; addrs } ->
      List.iter
        (fun addr ->
          t.n_grants <- t.n_grants + 1;
          (match Hashtbl.find_opt t.wlocks addr with
          | Some w when w <> core && not (doomed t w) ->
              let granted_epoch =
                match Hashtbl.find_opt t.wepoch addr with
                | Some e -> e
                | None -> t.cur_epoch
              in
              if granted_epoch < t.cur_epoch then
                violation t seq time
                  "write-lock grant to core %d on addr %d crosses an epoch \
                   boundary: core %d was granted it in epoch %d (current \
                   epoch %d) and was never revoked or reclaimed — a \
                   stale-epoch server granted over the failover"
                  core addr w granted_epoch t.cur_epoch
              else
                violation t seq time
                  "write-lock grant to core %d on addr %d while core %d holds \
                   the write lock"
                  core addr w
          | Some _ | None -> ());
          List.iter
            (fun r ->
              if r <> core then
                if doomed t r then drop_reader t addr r
                else
                  violation t seq time
                    "write-lock grant to core %d on addr %d while core %d \
                     holds a read lock"
                    core addr r)
            (readers t addr);
          Hashtbl.replace t.wlocks addr core;
          note_grant t core addr;
          Hashtbl.replace t.wepoch addr t.cur_epoch)
        addrs
  | Event.Rlock_released { core; addr } ->
      (match Hashtbl.find_opt t.live core with
      | Some l when not l.l_elastic ->
          violation t seq time
            "core %d released its read lock on addr %d mid-attempt in a \
             non-elastic transaction (two-phase violation)"
            core addr
      | Some _ -> ()
      | None ->
          violation t seq time
            "core %d released a read lock on addr %d outside any attempt" core
            addr);
      if not (List.mem core (readers t addr)) then
        violation t seq time
          "core %d released a read lock on addr %d it does not hold" core addr;
      drop_reader t addr core
  | Event.Tx_publish { core; _ } ->
      (match Hashtbl.find_opt t.live core with
      | Some l ->
          l.l_published <- true;
          List.iter
            (fun addr ->
              match Hashtbl.find_opt t.wlocks addr with
              | Some w when w = core -> ()
              | Some w ->
                  violation t seq time
                    "core %d writing back addr %d write-locked by core %d" core
                    addr w
              | None ->
                  violation t seq time
                    "core %d writing back addr %d without holding its write \
                     lock"
                    core addr)
            l.l_writes
      | None -> ());
      (* Release messages go out at the publish point and can be
         serviced before [Tx_committed] is emitted — free the
         shadow locks now so re-grants of the released addresses
         are not misread as conflicts. *)
      drop_core_locks t core
  | Event.Tx_committed { core; _ } ->
      drop_core_locks t core;
      Hashtbl.remove t.live core;
      Hashtbl.replace t.last_outcome core `Committed
  | Event.Tx_aborted { core; _ } ->
      drop_core_locks t core;
      Hashtbl.remove t.live core;
      Hashtbl.replace t.last_outcome core `Aborted
  | Event.Enemy_aborted { victim; addr; winner; _ } ->
      (match Hashtbl.find_opt t.live victim with
      | Some l when l.l_published ->
          violation t seq time
            "enemy-abort CAS by core %d landed on core %d (addr %d) after \
             its publish point — victim was already committed"
            winner victim addr
      | Some l -> l.l_doomed <- true
      | None -> (
          match Hashtbl.find_opt t.last_outcome victim with
          | Some `Committed ->
              violation t seq time
                "enemy-abort CAS by core %d landed on core %d (addr %d) \
                 after its commit and before its next attempt — the \
                 status word reads Committing there, the CAS must fail"
                winner victim addr
          | Some `Aborted | None ->
              (* Benign in-flight revocation: the victim already
                 aborted on its own, its status word still reads
                 Pending until the next begin_attempt. *)
              ()));
      (* The server revokes the victim's conflicting entry before
         granting the winner. *)
      drop_reader t addr victim;
      (match Hashtbl.find_opt t.wlocks addr with
      | Some w when w = victim -> Hashtbl.remove t.wlocks addr
      | Some _ | None -> ())
  | Event.Lease_reclaimed { victim; addr; aborted; _ } ->
      (* Lease expiry revoked the victim's entry on [addr]. When the
         reclaim CAS landed ([aborted]) the victim's live attempt
         was killed exactly like an [Enemy_aborted] — same publish
         check, same dooming. A stale reclaim (the entry's attempt
         had already ended: the holder crashed between attempts, or
         its release was dropped) touches no live attempt and is
         never a violation. *)
      (if aborted then
         match Hashtbl.find_opt t.live victim with
         | Some l when l.l_published ->
             violation t seq time
               "lease reclaim aborted core %d (addr %d) after its publish \
                point — victim was already committed"
               victim addr
         | Some l -> l.l_doomed <- true
         | None -> ());
      drop_reader t addr victim;
      (match Hashtbl.find_opt t.wlocks addr with
      | Some w when w = victim -> Hashtbl.remove t.wlocks addr
      | Some _ | None -> ())
  | Event.Core_crashed _ ->
      (* Crash-stop releases nothing: the core's shadow locks stay
         held (a grant over them without an [Enemy_aborted] or
         [Lease_reclaimed] is still a violation) and its open
         attempt simply never ends — which breaks no rule here, so
         a crashed core's dangling attempt is not a 2PL violation.
         The status word still reads Pending, so the entries are
         not doomed-stale either: only a CAS event may revoke them. *)
      ()
  | Event.Epoch_bumped { epoch; _ } ->
      if epoch > t.cur_epoch then t.cur_epoch <- epoch
  | Event.Server_crashed _ | Event.Replica_applied _ | Event.Failover_done _
  | Event.Stale_epoch_rejected _ ->
      (* Failover bookkeeping: the replica apply and merge move
         entries between tables without changing any holder, so
         the shadow needs no action; honest stale rejections touch
         nothing by construction. *)
      ()
  | Event.Tx_commit_begin _ | Event.Host_write _ | Event.Lock_conflict _
  | Event.Req_sent _ | Event.Service _ | Event.Service_done _ | Event.Barrier _
  | Event.Msg_dropped _ | Event.Msg_duplicated _ | Event.Req_resent _
  | Event.Req_admitted _ | Event.Req_shed _ | Event.Req_expired _
  | Event.Retry_budget_exhausted _ ->
      (* Admission happens strictly before Tx_start: shed and expired
         requests never touched the lock service. *)
      ()

let finish t = { violations = List.rev t.violations; n_grants = t.n_grants }

let analyze iter =
  let t = create () in
  iter (fun time ev -> feed t time ev);
  finish t
