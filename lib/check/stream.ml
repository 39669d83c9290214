(* Online bounded-memory checker: the full oracle stack — history
   reconstruction, lockset shadow, serialization-graph test, opacity,
   liveness — restructured as an incremental pipeline fed one event at
   a time through the trace sink, so a run of any length can be
   checked without retaining its event stream.

   Memory is bounded by the concurrency window, not the run length:

   - The history builder runs with [retain:false]; attempts are
     consumed through its callbacks and dropped at close.
   - Versioned memory keeps, per address, only the versions newer
     than the garbage-collection watermark — the minimum start
     sequence over still-open attempts ({!History.watermark}). No
     open attempt can resolve a read against anything older than the
     newest version at or below its own start, so pruning the rest
     cannot change any verdict on a protocol-respecting trace.
   - Serialization-graph nodes are reference-counted ("pins": one per
     retained version they installed, one per awaited RW edge, one
     for being an address's most recent transactional writer) and
     retired once closed and unpinned. Retirement path-compresses:
     for every in-neighbor p and out-neighbor s of the retired node,
     a synthetic p -> s edge preserves reachability, so a cycle
     through retired transactions is still a cycle.

   Per-event cost follows the state the event touches, not the
   window. The periodic sweep ([gc], every [gc_interval] events)
   visits two work lists kept up to date as events arrive — the
   addresses holding more than one retained version, and the nodes
   that closed unpinned or lost their last pin since the previous
   sweep — so it costs O(multi-version addresses + candidates); no
   table is traversed until [finish]. The lockset shadow likewise
   drops a core's locks through its own grant list, in O(locks the
   core was granted).

   Two documented residues can grow with the workload (not the run
   length): the RW await list of an address that is read but never
   transactionally written again, and the pinned last-writer node of
   an address never rewritten. Both are bounded by the address
   working set; the contended workloads the streaming checker targets
   rewrite their hot addresses continuously.

   Verdict equivalence with the batch oracle ([Check.run]) is exact
   on protocol-respecting traces and on the seeded fault/mutation
   schedules we test; constructed adversarial traces can diverge in
   witness *detail* (which of several equivalent cycles or stale
   resolutions is reported) because the stream resolves reads at
   attempt close while the batch replays with the complete timeline.
   The differential test battery compares full verdicts across
   seeds, shapes and fault schedules. *)

open Tm2c_core

type verdict = {
  d_events : int;
  d_attempts : int;
  d_committed : int;
  d_aborted : int;
  d_unfinished : int;
  d_anomalies : int;
  d_reads_checked : int;
  d_reads_skipped : int;
  d_corruption : string list;
  d_cycle : Types.addr list option;
  d_opacity : (Types.addr * Types.addr) list;
  d_opacity_checked : int;
  d_lock_violations : int;
  d_grants : int;
  d_liveness_violations : int;
  d_max_chain : int;
  d_stuck : Types.core_id list;
}

let n_failures v =
  v.d_anomalies
  + List.length v.d_corruption
  + (match v.d_cycle with Some _ -> 1 | None -> 0)
  + List.length v.d_opacity
  + v.d_lock_violations + v.d_liveness_violations
  + List.length v.d_stuck

let passed v = n_failures v = 0

let equal (a : verdict) (b : verdict) = a = b

(* --- Serialization graph with retirement. --- *)

type gedge = {
  ge_to : int;
  ge_kind : Serial.edge_kind;
  ge_addr : Types.addr;
  ge_seq : int;
}

type node = {
  n_id : int;
  n_core : Types.core_id;
  n_attempt : int;
  n_pub_time : float;
  mutable n_open : bool;  (* attempt not yet closed *)
  mutable n_pins : int;  (* retained versions + awaits + last-writer *)
  mutable n_out : gedge list;
  mutable n_in : int list;  (* predecessor ids, for path compression *)
}

(* A retained version of one address; [sv_writer = -1] marks the
   lazily-bound initial version and external host writes. *)
type sversion = {
  sv_pub : int;
  mutable sv_value : int option;
  sv_writer : int;
}

type astate = {
  mutable versions : sversion list;  (* newest first *)
  mutable await : (int * int) list;  (* (reader node, r_seq) pending RW *)
  mutable last_writer : int;  (* most recent transactional writer, -1 none *)
  mutable listed : bool;  (* in [t.multi]: holds more than one version *)
}

type chain = { mutable c_len : int }

type t = {
  mutable hb : History.builder;
  ls : Lockset.t;
  opacity_on : bool;
  budget : int;
  mutable stuck_after_ns : float;
  gc_interval : int;
  nodes : (int, node) Hashtbl.t;
  addrs : (Types.addr, astate) Hashtbl.t;
  (* The sweep's work lists. [multi]: addresses holding more than one
     retained version, the only ones pruning can shorten. [candidates]:
     nodes seen closed and unpinned since the last sweep (possibly
     repinned, retired or listed twice since), a superset of the
     retirable set. *)
  mutable multi : astate list;
  mutable candidates : int list;
  pub_node : (Types.core_id, int) Hashtbl.t;  (* open published attempt *)
  mutable next_id : int;
  mutable horizon : float;
  mutable crashed : Types.core_id list;
  mutable committed : int;
  mutable aborted : int;
  mutable unfinished : int;
  mutable reads_checked : int;
  mutable reads_skipped : int;
  mutable corruption : string list;  (* reversed *)
  mutable opacity : Serial.inconsistent_read list;  (* reversed *)
  mutable opacity_checked : int;
  mutable cycle : (string list * Types.addr list) option;
  chains : (Types.core_id, chain) Hashtbl.t;
  mutable liveness_violations : int;
  mutable max_chain : int;
  mutable stuck : Types.core_id list;
  mutable finishing : bool;
  mutable since_gc : int;
  mutable peak_nodes : int;  (* high-water of live graph nodes *)
  mutable fin_anomalies : History.anomaly list;
  mutable fin_lockset : Lockset.report option;
  mutable result : verdict option;
}

let label n =
  Printf.sprintf "T%d[core %d attempt %d, published @%.0fns]" n.n_id n.n_core
    n.n_attempt n.n_pub_time

let pin t id =
  match Hashtbl.find_opt t.nodes id with
  | Some n -> n.n_pins <- n.n_pins + 1
  | None -> ()

(* A node becomes retirable only by its last unpin or by closing
   while unpinned; both moments list it for the next sweep. *)
let unpin t id =
  match Hashtbl.find_opt t.nodes id with
  | Some n ->
      n.n_pins <- n.n_pins - 1;
      if n.n_pins <= 0 && not n.n_open then t.candidates <- id :: t.candidates
  | None -> ()

let close_node t n =
  n.n_open <- false;
  if n.n_pins <= 0 then t.candidates <- n.n_id :: t.candidates

let push_version t st v =
  if not st.listed then begin
    st.listed <- true;
    t.multi <- st :: t.multi
  end;
  st.versions <- v :: st.versions

let astate_of t addr =
  match Hashtbl.find_opt t.addrs addr with
  | Some st -> st
  | None ->
      let st =
        {
          versions = [ { sv_pub = -1; sv_value = None; sv_writer = -1 } ];
          await = [];
          last_writer = -1;
          listed = false;
        }
      in
      Hashtbl.add t.addrs addr st;
      st

(* First cycle wins: DFS from the new edge's target looking for its
   source; out-lists are insertion-ordered, so the search is
   deterministic. Depth is bounded by the live window. *)
let check_cycle t u_id v_id closing =
  let visited = Hashtbl.create 64 in
  let rec go id =
    if id = u_id then Some []
    else if Hashtbl.mem visited id then None
    else begin
      Hashtbl.add visited id ();
      match Hashtbl.find_opt t.nodes id with
      | None -> None
      | Some n ->
          let rec try_edges = function
            | [] -> None
            | e :: rest -> (
                match go e.ge_to with
                | Some tail -> Some ((id, e) :: tail)
                | None -> try_edges rest)
          in
          try_edges n.n_out
    end
  in
  match go v_id with
  | None -> ()
  | Some path ->
      let hops = path @ [ (u_id, closing) ] in
      let name id =
        match Hashtbl.find_opt t.nodes id with
        | Some n -> label n
        | None -> Printf.sprintf "T%d" id
      in
      let lines =
        List.map
          (fun (f, e) ->
            Printf.sprintf "  %s --%s addr=%d @seq %d--> %s" (name f)
              (Serial.edge_kind_to_string e.ge_kind)
              e.ge_addr e.ge_seq (name e.ge_to))
          hops
      in
      let addrs =
        List.sort_uniq compare (List.map (fun (_, e) -> e.ge_addr) hops)
      in
      t.cycle <- Some (lines, addrs)

(* Synthetic edges come from path compression: they cannot create
   reachability that did not already exist, so they skip the cycle
   probe. *)
let add_edge t ~synthetic from_id to_id kind addr seq =
  if from_id <> to_id then
    match (Hashtbl.find_opt t.nodes from_id, Hashtbl.find_opt t.nodes to_id) with
    | Some fn, Some tn ->
        if not (List.exists (fun e -> e.ge_to = to_id) fn.n_out) then begin
          let e = { ge_to = to_id; ge_kind = kind; ge_addr = addr; ge_seq = seq } in
          fn.n_out <- e :: fn.n_out;
          if not (List.mem from_id tn.n_in) then tn.n_in <- from_id :: tn.n_in;
          if (not synthetic) && t.cycle = None then
            check_cycle t from_id to_id e
        end
    | _ -> ()

let retire t id =
  match Hashtbl.find_opt t.nodes id with
  | None -> ()
  | Some n ->
      List.iter
        (fun p_id ->
          match Hashtbl.find_opt t.nodes p_id with
          | None -> ()
          | Some p -> (
              match List.find_opt (fun e -> e.ge_to = id) p.n_out with
              | None -> ()
              | Some pe ->
                  p.n_out <- List.filter (fun e -> e.ge_to <> id) p.n_out;
                  List.iter
                    (fun e ->
                      if Hashtbl.mem t.nodes e.ge_to then
                        add_edge t ~synthetic:true p_id e.ge_to pe.ge_kind
                          pe.ge_addr pe.ge_seq)
                    n.n_out))
        n.n_in;
      List.iter
        (fun e ->
          match Hashtbl.find_opt t.nodes e.ge_to with
          | None -> ()
          | Some s -> s.n_in <- List.filter (fun x -> x <> id) s.n_in)
        n.n_out;
      Hashtbl.remove t.nodes id

let gc t =
  t.since_gc <- 0;
  let wm = History.watermark t.hb in
  (* Per address, keep everything newer than the newest version at or
     below the watermark, plus that boundary version itself: it is
     the one an open attempt's earliest read can still resolve to.
     Pending awaits are per address, not per version, so pruning
     never loses an RW edge. Single-version addresses are already
     minimal and leave the list. *)
  let rec keep = function
    | [] -> []
    | v :: rest ->
        if v.sv_pub <= wm then begin
          List.iter
            (fun dv -> if dv.sv_writer >= 0 then unpin t dv.sv_writer)
            rest;
          [ v ]
        end
        else v :: keep rest
  in
  t.multi <-
    List.filter
      (fun st ->
        st.versions <- keep st.versions;
        st.listed <- List.compare_length_with st.versions 1 > 0;
        st.listed)
      t.multi;
  (* Retire in ascending id order, the order path compression was
     specified in: it decides which synthetic edges (and so which
     cycle witness) survive. *)
  let due = List.sort_uniq Int.compare t.candidates in
  t.candidates <- [];
  List.iter
    (fun id ->
      match Hashtbl.find_opt t.nodes id with
      | Some n when (not n.n_open) && n.n_pins <= 0 -> retire t id
      | Some _ | None -> ())
    due

(* --- Versioned-memory installation and read resolution. --- *)

(* Install a serialized attempt's write set at its publish point and
   create its graph node. WW edges chain consecutive transactional
   writers; pending RW awaits flush onto the new writer. *)
let install t (a : History.attempt) pub =
  let id = t.next_id in
  t.next_id <- id + 1;
  let n =
    {
      n_id = id;
      n_core = a.History.a_core;
      n_attempt = a.History.a_number;
      n_pub_time = a.History.a_publish_time;
      n_open = true;
      n_pins = 0;
      n_out = [];
      n_in = [];
    }
  in
  Hashtbl.replace t.nodes id n;
  List.iter
    (fun (addr, value) ->
      let st = astate_of t addr in
      if st.last_writer >= 0 then begin
        add_edge t ~synthetic:false st.last_writer id Serial.Ww addr pub;
        unpin t st.last_writer
      end;
      List.iter
        (fun (rid, rseq) ->
          add_edge t ~synthetic:false rid id Serial.Rw addr rseq;
          unpin t rid)
        (List.rev st.await);
      st.await <- [];
      st.last_writer <- id;
      n.n_pins <- n.n_pins + 1;
      push_version t st { sv_pub = pub; sv_value = Some value; sv_writer = id };
      n.n_pins <- n.n_pins + 1)
    a.History.a_writes;
  let live = Hashtbl.length t.nodes in
  if live > t.peak_nodes then t.peak_nodes <- live;
  id

let on_publish t (a : History.attempt) =
  let pub = match a.History.a_publish_seq with Some s -> s | None -> 0 in
  let id = install t a pub in
  Hashtbl.replace t.pub_node a.History.a_core id

let on_host_write t seq addr value =
  push_version t (astate_of t addr)
    { sv_pub = seq; sv_value = Some value; sv_writer = -1 }

(* Mirror of the batch resolver over the retained window (ascending
   array): timing-predicted version first, then binding the unbound
   predecessor, then the nearest stale, then a future version, then
   binding the initial version. *)
let resolve (vs : sversion array) (r : History.read) =
  let n = Array.length vs in
  let pred = ref 0 in
  for j = 0 to n - 1 do
    if vs.(j).sv_pub < r.History.r_seq then pred := j
  done;
  let matches j =
    match vs.(j).sv_value with Some v -> v = r.History.r_value | None -> false
  in
  if matches !pred then Some !pred
  else if vs.(!pred).sv_value = None then begin
    vs.(!pred).sv_value <- Some r.History.r_value;
    Some !pred
  end
  else begin
    let found = ref (-1) in
    for j = 0 to !pred - 1 do
      if matches j then found := j
    done;
    if !found >= 0 then Some !found
    else begin
      for j = n - 1 downto !pred + 1 do
        if matches j then found := j
      done;
      if !found >= 0 then Some !found
      else if vs.(0).sv_value = None then begin
        vs.(0).sv_value <- Some r.History.r_value;
        Some 0
      end
      else None
    end
  end

let close_serialized t id (a : History.attempt) =
  (match Hashtbl.find_opt t.nodes id with
  | Some n -> close_node t n
  | None -> ());
  if a.History.a_elastic then
    t.reads_skipped <- t.reads_skipped + List.length a.History.a_reads
  else
    List.iter
      (fun (r : History.read) ->
        t.reads_checked <- t.reads_checked + 1;
        let st = astate_of t r.History.r_addr in
        let vs = Array.of_list (List.rev st.versions) in
        match resolve vs r with
        | None ->
            t.corruption <-
              Printf.sprintf
                "core %d attempt %d read addr=%d value=%d at seq %d: value \
                 matches no installed version"
                a.History.a_core a.History.a_number r.History.r_addr
                r.History.r_value r.History.r_seq
              :: t.corruption
        | Some j ->
            if vs.(j).sv_writer >= 0 then
              add_edge t ~synthetic:false vs.(j).sv_writer id Serial.Wr
                r.History.r_addr r.History.r_seq;
            let rec next_writer k =
              if k >= Array.length vs then None
              else if vs.(k).sv_writer >= 0 then Some vs.(k).sv_writer
              else next_writer (k + 1)
            in
            (match next_writer (j + 1) with
            | Some w ->
                add_edge t ~synthetic:false id w Serial.Rw r.History.r_addr
                  r.History.r_seq
            | None ->
                (* No transactional overwrite yet: the RW edge fires
                   when (if) one installs. *)
                st.await <- (id, r.History.r_seq) :: st.await;
                pin t id))
      a.History.a_reads

let versions_of t addr =
  let st = astate_of t addr in
  Array.of_list (List.rev_map (fun v -> (v.sv_pub, v.sv_value)) st.versions)

let check_opacity t (a : History.attempt) =
  if t.opacity_on && not a.History.a_elastic then begin
    t.opacity_checked <- t.opacity_checked + 1;
    match Serial.opacity_check ~versions_of:(versions_of t) a with
    | Some ir -> t.opacity <- ir :: t.opacity
    | None -> ()
  end

(* --- Liveness: per-core abort runs and wedge detection, the
   streaming mirror of {!Liveness.analyze}. --- *)

let flush_chain t core =
  match Hashtbl.find_opt t.chains core with
  | None -> ()
  | Some c ->
      if c.c_len > t.max_chain then t.max_chain <- c.c_len;
      if c.c_len >= t.budget then
        t.liveness_violations <- t.liveness_violations + 1;
      Hashtbl.remove t.chains core

let extend_chain t core =
  match Hashtbl.find_opt t.chains core with
  | Some c -> c.c_len <- c.c_len + 1
  | None -> Hashtbl.add t.chains core { c_len = 1 }

let last_activity (a : History.attempt) =
  List.fold_left
    (fun acc (r : History.read) -> Float.max acc r.History.r_time)
    (Float.max a.History.a_start_time a.History.a_publish_time)
    a.History.a_reads

(* Fires only for attempts still open at the horizon (finish-time
   closes): the streaming analogue of "the core's chronologically
   last attempt is Unfinished". Crash-closed attempts close mid-run
   and never reach here. *)
let check_stuck t (a : History.attempt) =
  if
    (not (List.mem a.History.a_core t.crashed))
    && t.horizon -. last_activity a >= t.stuck_after_ns
  then t.stuck <- a.History.a_core :: t.stuck

let on_close t (a : History.attempt) =
  let core = a.History.a_core in
  let node_id = Hashtbl.find_opt t.pub_node core in
  Hashtbl.remove t.pub_node core;
  match a.History.a_outcome with
  | History.Committed _ -> (
      t.committed <- t.committed + 1;
      flush_chain t core;
      match node_id with
      | Some id -> close_serialized t id a
      | None ->
          (* Defensive: a commit whose publish event went untraced.
             Serialize it at its end point, as the batch oracle does. *)
          let id = install t a a.History.a_end_seq in
          close_serialized t id a)
  | History.Unfinished -> (
      t.unfinished <- t.unfinished + 1;
      if t.finishing then check_stuck t a;
      match node_id with
      | Some id -> close_serialized t id a
      | None -> check_opacity t a)
  | History.Aborted _ ->
      t.aborted <- t.aborted + 1;
      extend_chain t core;
      (* A published-then-aborted attempt is protocol-impossible (the
         status CAS to Committing precedes publish); if a broken trace
         produces one anyway, unhook its node so it can retire. *)
      (match node_id with
      | Some id -> (
          match Hashtbl.find_opt t.nodes id with
          | Some n -> close_node t n
          | None -> ())
      | None -> ());
      check_opacity t a

(* --- Driver. --- *)

let create ?(liveness_budget = Check.default_liveness_budget)
    ?(stuck_after_ns = infinity) ?(opacity = true) ?(gc_interval = 1024) () =
  let t =
    {
      hb = History.builder ~retain:false ();
      ls = Lockset.create ();
      opacity_on = opacity;
      budget = liveness_budget;
      stuck_after_ns;
      gc_interval;
      nodes = Hashtbl.create 256;
      addrs = Hashtbl.create 256;
      multi = [];
      candidates = [];
      pub_node = Hashtbl.create 64;
      next_id = 0;
      horizon = 0.0;
      crashed = [];
      committed = 0;
      aborted = 0;
      unfinished = 0;
      reads_checked = 0;
      reads_skipped = 0;
      corruption = [];
      opacity = [];
      opacity_checked = 0;
      cycle = None;
      chains = Hashtbl.create 64;
      liveness_violations = 0;
      max_chain = 0;
      stuck = [];
      finishing = false;
      since_gc = 0;
      peak_nodes = 0;
      fin_anomalies = [];
      fin_lockset = None;
      result = None;
    }
  in
  t.hb <-
    History.builder ~retain:false
      ~on_close:(fun a -> on_close t a)
      ~on_publish:(fun a -> on_publish t a)
      ~on_host_write:(fun seq addr value -> on_host_write t seq addr value)
      ();
  t

let feed t time ev =
  if time > t.horizon then t.horizon <- time;
  (match ev with
  | Event.Core_crashed { core; _ } -> t.crashed <- core :: t.crashed
  | _ -> ());
  Lockset.feed t.ls time ev;
  History.feed t.hb time ev;
  t.since_gc <- t.since_gc + 1;
  if t.since_gc >= t.gc_interval then gc t

let set_stuck_after_ns t v = t.stuck_after_ns <- v

let attach t trace =
  Tm2c_engine.Trace.set_sink trace (Some (feed t));
  Tm2c_engine.Trace.enable trace

let n_live_nodes t = Hashtbl.length t.nodes

let peak_nodes t = t.peak_nodes

let finish t =
  match t.result with
  | Some v -> v
  | None ->
      t.finishing <- true;
      let h = History.finish t.hb in
      let cores = ref [] in
      Tm2c_engine.Det.iter (fun core _ -> cores := core :: !cores) t.chains;
      List.iter (fun core -> flush_chain t core) (List.rev !cores);
      let lr = Lockset.finish t.ls in
      t.fin_anomalies <- h.History.anomalies;
      t.fin_lockset <- Some lr;
      let v =
        {
          d_events = h.History.n_events;
          d_attempts = t.committed + t.aborted + t.unfinished;
          d_committed = t.committed;
          d_aborted = t.aborted;
          d_unfinished = t.unfinished;
          d_anomalies = List.length h.History.anomalies;
          d_reads_checked = t.reads_checked;
          d_reads_skipped = t.reads_skipped;
          d_corruption = List.sort compare t.corruption;
          d_cycle =
            (match t.cycle with None -> None | Some (_, addrs) -> Some addrs);
          d_opacity =
            List.sort compare
              (List.rev_map
                 (fun (ir : Serial.inconsistent_read) ->
                   (ir.Serial.ir_addr1, ir.Serial.ir_addr2))
                 t.opacity);
          d_opacity_checked = t.opacity_checked;
          d_lock_violations = List.length lr.Lockset.violations;
          d_grants = lr.Lockset.n_grants;
          d_liveness_violations = t.liveness_violations;
          d_max_chain = t.max_chain;
          d_stuck = List.sort compare t.stuck;
        }
      in
      t.result <- Some v;
      v

(* Project a batch result onto the comparable verdict, for the
   differential battery. *)
let verdict_of_result (r : Check.result) =
  let committed, aborted, unfinished =
    List.fold_left
      (fun (c, ab, u) (a : History.attempt) ->
        match a.History.a_outcome with
        | History.Committed _ -> (c + 1, ab, u)
        | History.Aborted _ -> (c, ab + 1, u)
        | History.Unfinished -> (c, ab, u + 1))
      (0, 0, 0) r.Check.history.History.attempts
  in
  {
    d_events = r.Check.history.History.n_events;
    d_attempts = List.length r.Check.history.History.attempts;
    d_committed = committed;
    d_aborted = aborted;
    d_unfinished = unfinished;
    d_anomalies = List.length r.Check.history.History.anomalies;
    d_reads_checked = r.Check.serial.Serial.n_reads_checked;
    d_reads_skipped = r.Check.serial.Serial.n_reads_skipped;
    d_corruption = List.sort compare r.Check.serial.Serial.corruption;
    d_cycle =
      (match r.Check.serial.Serial.cycle with
      | None -> None
      | Some c ->
          Some
            (List.sort_uniq compare
               (List.map (fun (e : Serial.edge) -> e.Serial.e_addr)
                  c.Serial.c_edges)));
    d_opacity =
      List.sort compare
        (List.map
           (fun (ir : Serial.inconsistent_read) ->
             (ir.Serial.ir_addr1, ir.Serial.ir_addr2))
           r.Check.serial.Serial.opacity);
    d_opacity_checked = r.Check.serial.Serial.n_opacity_checked;
    d_lock_violations = List.length r.Check.lockset.Lockset.violations;
    d_grants = r.Check.lockset.Lockset.n_grants;
    d_liveness_violations = List.length r.Check.liveness.Liveness.violations;
    d_max_chain =
      (match r.Check.liveness.Liveness.max_chain with
      | None -> 0
      | Some ch -> ch.Liveness.ch_len);
    d_stuck =
      List.sort compare
        (List.map
           (fun (s : Liveness.stuck) -> s.Liveness.st_core)
           r.Check.liveness.Liveness.stuck);
  }

let pp_verdict fmt v =
  let status ok = if ok then "OK  " else "FAIL" in
  Format.fprintf fmt
    "history  %s  %d events, %d attempts (%d committed, %d aborted, %d \
     unfinished), %d anomalies@."
    (status (v.d_anomalies = 0))
    v.d_events v.d_attempts v.d_committed v.d_aborted v.d_unfinished
    v.d_anomalies;
  Format.fprintf fmt
    "serial   %s  %d reads checked (%d elastic skipped), %d corrupt, %s, \
     %d/%d attempts opaque@."
    (status
       (v.d_corruption = [] && v.d_cycle = None && v.d_opacity = []))
    v.d_reads_checked v.d_reads_skipped
    (List.length v.d_corruption)
    (match v.d_cycle with
    | None -> "acyclic"
    | Some addrs ->
        Printf.sprintf "CYCLE over %d address(es)" (List.length addrs))
    (v.d_opacity_checked - List.length v.d_opacity)
    v.d_opacity_checked;
  Format.fprintf fmt "lockset  %s  %d grants replayed, %d violations@."
    (status (v.d_lock_violations = 0))
    v.d_grants v.d_lock_violations;
  Format.fprintf fmt "liveness %s  max abort chain %d, %d violations, %d stuck@."
    (status (v.d_liveness_violations = 0 && v.d_stuck = []))
    v.d_max_chain v.d_liveness_violations
    (List.length v.d_stuck)

let pp_witness fmt t =
  if t.fin_anomalies <> [] then begin
    Format.fprintf fmt "@.== history anomalies (verdicts below are void) ==@.";
    List.iter
      (fun (an : History.anomaly) ->
        Format.fprintf fmt "  seq %d @%.0fns: %s@." an.History.an_seq
          an.History.an_time an.History.an_message)
      t.fin_anomalies
  end;
  List.iter
    (fun msg -> Format.fprintf fmt "@.== value corruption ==@.  %s@." msg)
    (List.rev t.corruption);
  (match t.cycle with
  | None -> ()
  | Some (lines, _) ->
      Format.fprintf fmt
        "@.== serializability violation: conflict-graph cycle ==@.";
      List.iter (fun l -> Format.fprintf fmt "%s@." l) lines;
      Format.fprintf fmt
        "  no serial order of these transactions explains the observed reads@.");
  (match List.rev t.opacity with
  | [] -> ()
  | irs ->
      Format.fprintf fmt "@.== opacity violations: inconsistent reads ==@.";
      List.iter (Check.pp_inconsistent_read fmt) irs);
  match t.fin_lockset with
  | Some lr when lr.Lockset.violations <> [] ->
      Format.fprintf fmt "@.== lock protocol violations ==@.";
      List.iter
        (fun (viol : Lockset.violation) ->
          Format.fprintf fmt "  seq %d @%.0fns: %s@." viol.Lockset.v_seq
            viol.Lockset.v_time viol.Lockset.v_message)
        lr.Lockset.violations
  | Some _ | None -> ()

let report_string t =
  let v = finish t in
  Format.asprintf "%a%a" pp_verdict v pp_witness t
