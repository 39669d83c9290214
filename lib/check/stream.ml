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
   - A closed node with no in-edge whose publish is at or below the
     watermark also retires, pinned or not, without path compression
     (the SGT deletion rule of Hadzilacos and Yannakakis): nothing can
     add an edge into it any more, so no cycle can pass through it.
     This is the exit for read-only attempts awaiting an RW edge on an
     address no one rewrites and for last writers never overwritten.

   Per-event cost follows the state the event touches, not the
   window. The periodic sweep ([gc], every [gc_interval] events)
   visits work lists kept up to date as events arrive — the addresses
   holding more than one retained version, the nodes that closed
   unpinned or lost their last pin since the previous sweep, the
   closed nodes that have or were just left with no in-edge, and the
   awaits of the sources it retires — so it costs O(work lists); no
   table is traversed until [finish]. The lockset shadow likewise
   drops a core's locks through its own grant list, in O(locks the
   core was granted).

   Both drivers bind initial versions as reads are traced
   ([Serial.observe]) and judge an attempt when the history builder
   closes it ([Serial.judge]), and close the run alike ([close_run]);
   what differs is what makes the batch a reference (the complete
   sorted timeline and a search over the finished graph) against the
   stream's pruned timeline, incremental graph and retirement. So they
   bind every initial version to the same value and resolve every read
   to the same version: one published before the read, which the
   stream still holds at the close. A write set is final at its first
   publish, where the stream installs it (the history drops a later
   write or publish as an anomaly), and a published attempt is
   serialized in both drivers whatever its outcome. On every history the sweep never prunes
   (below [gc_interval] events) and, on longer ones, as long as the
   trace respects the protocol, the two reach the same pass/fail
   verdict and the same report, with one exception: on a graph with
   two conflict cycles the stream names the first an edge insertion
   closes and the batch the one its search from the lowest transaction
   finds, so the cycle's addresses, part of the verdict, can differ.
   The differential battery compares whole verdicts and reports over
   simulator runs and generated raw histories. *)

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
  d_liveness : Liveness.report;
}

(* Each checker's violations in the form its own witness section
   renders them, for either driver. *)
type witness = {
  w_anomalies : History.anomaly list;
  w_corruption : string list;
  w_cycle : (Serial.edge list * (int -> string)) option;
  w_opacity : Serial.inconsistent_read list;
  w_lockset : Lockset.report;
  w_liveness : Liveness.report;
}

let n_failures v =
  v.d_anomalies
  + List.length v.d_corruption
  + (match v.d_cycle with Some _ -> 1 | None -> 0)
  + List.length v.d_opacity
  + v.d_lock_violations
  + List.length v.d_liveness.Liveness.violations
  + List.length v.d_liveness.Liveness.stuck

let passed v = n_failures v = 0

let equal (a : verdict) (b : verdict) = a = b

(* --- Serialization graph with retirement. --- *)

type astate = {
  mutable versions : Serial.version list;  (* retained, newest first *)
  mutable await : (int * int) list;  (* (reader node, r_seq) pending RW *)
  mutable last_writer : int;  (* most recent transactional writer, -1 none *)
  mutable listed : bool;  (* in [t.multi]: holds more than one version *)
}

type node = {
  n_id : int;
  n_core : Types.core_id;
  n_attempt : int;
  n_pub_time : float;
  n_pub_seq : int;
  mutable n_open : bool;  (* attempt not yet closed *)
  mutable n_pins : int;  (* retained versions + awaits + last-writer *)
  mutable n_out : Serial.edge list;  (* [e_from] is this node *)
  mutable n_in : int list;  (* predecessor ids *)
  mutable n_awaits : astate list;  (* addresses holding its RW awaits *)
  mutable n_seen : int;  (* last cycle search that visited it *)
}

type t = {
  mutable hb : History.builder;
  ls : Lockset.t;
  lv : Liveness.t;
  tally : Serial.tally;
  gc_interval : int;
  nodes : (int, node) Hashtbl.t;
  addrs : (Types.addr, astate) Hashtbl.t;
  (* The sweep's work lists. [multi]: addresses holding more than one
     retained version, the only ones pruning can shorten. [candidates]:
     nodes seen closed and unpinned since the last sweep (possibly
     repinned, retired or listed twice since), a superset of the
     retirable set. [sources]: nodes seen closed with no in-edge, or
     whose last in-edge a retirement removed, and closed sources still
     waiting for the watermark to pass their publish. *)
  mutable multi : astate list;
  mutable candidates : int list;
  mutable sources : int list;
  pub_node : (Types.core_id, int) Hashtbl.t;  (* open published attempt *)
  mutable next_id : int;
  mutable cycle : (Serial.edge list * (int * string) list) option;
      (* the hops, and each hop's source named while it was live *)
  mutable since_gc : int;
  mutable searches : int;  (* cycle searches so far, the visit stamp *)
  mutable peak_nodes : int;  (* high-water of live graph nodes *)
  mutable result : (verdict * witness) option;
}

(* A node becomes retirable only by its last unpin or by closing
   while unpinned; both moments list it for the next sweep. *)
let unpin t id =
  match Hashtbl.find_opt t.nodes id with
  | Some n ->
      n.n_pins <- n.n_pins - 1;
      if n.n_pins <= 0 && not n.n_open then t.candidates <- id :: t.candidates
  | None -> ()

(* Closing is also the first moment a node can be a retirable source;
   in-edges its own reads add right after are caught by the sweep. *)
let close_node t n =
  n.n_open <- false;
  if n.n_pins <= 0 then t.candidates <- n.n_id :: t.candidates;
  if n.n_in = [] then t.sources <- n.n_id :: t.sources

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
          versions = [ Serial.initial () ];
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
  t.searches <- t.searches + 1;
  let stamp = t.searches in
  let rec go id =
    if id = u_id then Some []
    else
      match Hashtbl.find_opt t.nodes id with
      | Some n when n.n_seen <> stamp ->
          n.n_seen <- stamp;
          let rec try_edges = function
            | [] -> None
            | e :: rest -> (
                match go e.Serial.e_to with
                | Some tail -> Some (e :: tail)
                | None -> try_edges rest)
          in
          try_edges n.n_out
      | Some _ | None -> None
  in
  match go v_id with
  | None -> ()
  | Some path ->
      let hops = path @ [ closing ] in
      let name id =
        match Hashtbl.find_opt t.nodes id with
        | Some n ->
            Serial.txn_label id ~core:n.n_core ~attempt:n.n_attempt
              ~published:n.n_pub_time
        | None -> Printf.sprintf "T%d" id
      in
      t.cycle <-
        Some (hops, List.map (fun e -> (e.Serial.e_from, name e.Serial.e_from)) hops)

(* Synthetic edges come from path compression: they cannot create
   reachability that did not already exist, so they skip the cycle
   probe. *)
let add_edge t ~synthetic from_id to_id kind addr seq =
  if from_id <> to_id then
    match (Hashtbl.find_opt t.nodes from_id, Hashtbl.find_opt t.nodes to_id) with
    | Some fn, Some tn ->
        if not (List.exists (fun e -> e.Serial.e_to = to_id) fn.n_out) then begin
          let e =
            { Serial.e_from = from_id; e_to = to_id; e_kind = kind; e_addr = addr; e_seq = seq }
          in
          fn.n_out <- e :: fn.n_out;
          if not (List.mem from_id tn.n_in) then tn.n_in <- from_id :: tn.n_in;
          if (not synthetic) && t.cycle = None then
            check_cycle t from_id to_id e
        end
    | _ -> ()

(* Drop a retiring node from its successors' in-lists; a successor
   left with none may now be a retirable source. *)
let unlink_out t n =
  List.iter
    (fun e ->
      match Hashtbl.find_opt t.nodes e.Serial.e_to with
      | None -> ()
      | Some s ->
          s.n_in <- List.filter (fun x -> x <> n.n_id) s.n_in;
          if s.n_in = [] then t.sources <- s.n_id :: t.sources)
    n.n_out;
  Hashtbl.remove t.nodes n.n_id

let retire t id =
  match Hashtbl.find_opt t.nodes id with
  | None -> ()
  | Some n ->
      List.iter
        (fun p_id ->
          match Hashtbl.find_opt t.nodes p_id with
          | None -> ()
          | Some p -> (
              match List.find_opt (fun e -> e.Serial.e_to = id) p.n_out with
              | None -> ()
              | Some pe ->
                  p.n_out <- List.filter (fun e -> e.Serial.e_to <> id) p.n_out;
                  List.iter
                    (fun e ->
                      if Hashtbl.mem t.nodes e.Serial.e_to then
                        add_edge t ~synthetic:true p_id e.Serial.e_to pe.Serial.e_kind
                          pe.Serial.e_addr pe.Serial.e_seq)
                    n.n_out))
        n.n_in;
      unlink_out t n

(* The second exit (the SGT deletion rule): a closed node with no
   in-edge whose publish is at or below the watermark. An edge into a
   closed node needs a later reader resolving to a version older than
   the node's, and the sweep has just pruned those, so no future cycle
   can pass through it: it leaves without path compression. Its awaits
   and last-writer role only ever add out-edges: the awaits leave with
   it, a stale last-writer id is ignored like any retired one. Sources
   not yet past the watermark wait on the list for a later sweep. *)
let retire_sources t wm =
  let waiting = ref [] in
  while t.sources <> [] do
    let due = List.sort_uniq Int.compare t.sources in
    t.sources <- [];
    List.iter
      (fun id ->
        match Hashtbl.find_opt t.nodes id with
        | Some n when (not n.n_open) && n.n_in = [] ->
            if n.n_pub_seq > wm then waiting := id :: !waiting
            else begin
              List.iter
                (fun st ->
                  st.await <- List.filter (fun (rid, _) -> rid <> id) st.await)
                n.n_awaits;
              unlink_out t n
            end
        | Some _ | None -> ())
      due
  done;
  t.sources <- !waiting

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
        if v.Serial.v_pub <= wm then begin
          List.iter
            (fun dv -> if dv.Serial.v_writer >= 0 then unpin t dv.Serial.v_writer)
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
    due;
  retire_sources t wm

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
      n_pub_seq = pub;
      n_open = true;
      n_pins = 0;
      n_out = [];
      n_in = [];
      n_awaits = [];
      n_seen = 0;
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
      push_version t st { Serial.v_pub = pub; v_value = Some value; v_writer = id };
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
    { Serial.v_pub = seq; v_value = Some value; v_writer = -1 }

(* Elastic reads never bind: both checks exclude them. *)
let on_read t (a : History.attempt) (r : History.read) =
  if not a.History.a_elastic then
    Serial.observe (astate_of t r.History.r_addr).versions r

let no_edges (_ : History.read) (_ : Serial.version) (_ : int) = ()

(* A published attempt is serialized whatever its outcome, as in the
   batch; a commit whose publish event went untraced installs at its
   end point. *)
let on_close t (a : History.attempt) =
  Liveness.close t.lv a;
  let core = a.History.a_core in
  let node_id = Hashtbl.find_opt t.pub_node core in
  Hashtbl.remove t.pub_node core;
  let id =
    match node_id with
    | Some id -> id
    | None -> if Serial.serialized a then install t a a.History.a_end_seq else -1
  in
  let node = Hashtbl.find_opt t.nodes id in
  (match node with Some n -> close_node t n | None -> ());
  (* Only a serialized attempt's reads reach [on_version], so one
     with no node allocates no closure for it. *)
  Serial.judge t.tally a
    ~versions_of:(fun addr -> (astate_of t addr).versions)
    ~on_version:
      (if id < 0 then no_edges
       else fun (r : History.read) v w ->
         if v.Serial.v_writer >= 0 then
           add_edge t ~synthetic:false v.Serial.v_writer id Serial.Wr r.History.r_addr
             r.History.r_seq;
         if w >= 0 then
           add_edge t ~synthetic:false id w Serial.Rw r.History.r_addr r.History.r_seq
         else begin
           (* No transactional overwrite yet: the RW edge fires when
              (if) one installs. *)
           let st = astate_of t r.History.r_addr in
           st.await <- (id, r.History.r_seq) :: st.await;
           match node with
           | Some n ->
               n.n_pins <- n.n_pins + 1;
               n.n_awaits <- st :: n.n_awaits
           | None -> ()
         end)

(* --- Driver. --- *)

let create ?(liveness_budget = Liveness.default_budget) ?(gc_interval = 1024) () =
  let t =
    {
      hb = History.builder ~retain:false ();
      ls = Lockset.create ();
      lv = Liveness.create ~budget:liveness_budget;
      tally = Serial.tally ();
      gc_interval;
      nodes = Hashtbl.create 256;
      addrs = Hashtbl.create 256;
      multi = [];
      candidates = [];
      sources = [];
      pub_node = Hashtbl.create 64;
      next_id = 0;
      cycle = None;
      since_gc = 0;
      searches = 0;
      peak_nodes = 0;
      result = None;
    }
  in
  t.hb <-
    History.builder ~retain:false
      ~on_close:(fun a -> on_close t a)
      ~on_read:(fun a r -> on_read t a r)
      ~on_publish:(fun a -> on_publish t a)
      ~on_host_write:(fun seq addr value -> on_host_write t seq addr value)
      ();
  t

let feed t time ev =
  Lockset.feed t.ls time ev;
  History.feed t.hb time ev;
  t.since_gc <- t.since_gc + 1;
  if t.since_gc >= t.gc_interval then gc t

let attach t trace =
  Tm2c_engine.Trace.set_sink trace (Some (feed t));
  Tm2c_engine.Trace.enable trace

let n_live_nodes t = Hashtbl.length t.nodes

let peak_nodes t = t.peak_nodes

let close_run (h : History.t) tally ~cycle ls lv ~stuck_after_ns =
  let w =
    {
      w_anomalies = h.History.anomalies;
      w_corruption = Serial.corrupt_reads tally;
      w_cycle = cycle;
      w_opacity = Serial.opacity_witnesses tally;
      w_lockset = Lockset.finish ls;
      w_liveness =
        Liveness.finish lv ~horizon:h.History.horizon ~crashed:h.History.crashed
          ~stuck_after_ns;
    }
  in
  let v =
    {
      d_events = h.History.n_events;
      d_attempts = h.History.n_committed + h.History.n_aborted + h.History.n_unfinished;
      d_committed = h.History.n_committed;
      d_aborted = h.History.n_aborted;
      d_unfinished = h.History.n_unfinished;
      d_anomalies = List.length w.w_anomalies;
      d_reads_checked = tally.Serial.reads_checked;
      d_reads_skipped = tally.Serial.reads_skipped;
      d_corruption = List.sort compare w.w_corruption;
      d_cycle =
        Option.map
          (fun (edges, _) ->
            List.sort_uniq compare (List.map (fun (e : Serial.edge) -> e.Serial.e_addr) edges))
          w.w_cycle;
      d_opacity =
        List.sort compare
          (List.map
             (fun (ir : Serial.inconsistent_read) -> (ir.Serial.ir_addr1, ir.Serial.ir_addr2))
             w.w_opacity);
      d_opacity_checked = tally.Serial.opacity_checked;
      d_lock_violations = List.length w.w_lockset.Lockset.violations;
      d_grants = w.w_lockset.Lockset.n_grants;
      d_liveness = w.w_liveness;
    }
  in
  (v, w)

(* Closes the run once; later calls return the first verdict
   whatever threshold they pass. *)
let finish ?(stuck_after_ns = infinity) t =
  match t.result with
  | Some (v, _) -> v
  | None ->
      let h = History.finish t.hb in
      let ((v, _) as result) =
        close_run h t.tally
          ~cycle:
            (Option.map
               (fun (edges, names) -> (edges, fun id -> List.assoc id names))
               t.cycle)
          t.ls t.lv ~stuck_after_ns
      in
      t.result <- Some result;
      v

(* Never finishes by itself: an unarmed finish here would pin the
   verdict before the caller's armed one. *)
let witness t =
  match t.result with
  | Some (_, w) -> w
  | None -> invalid_arg "Stream.witness: finish first"

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
  let lv = v.d_liveness in
  Format.fprintf fmt "liveness %s  max abort chain %d, %d violations, %d stuck@."
    (status (Liveness.ok lv))
    (match lv.Liveness.max_chain with None -> 0 | Some ch -> ch.Liveness.ch_len)
    (List.length lv.Liveness.violations)
    (List.length lv.Liveness.stuck)

(* The one witness composer: each checker's own section, in turn. *)
let pp_sections fmt w =
  History.pp_anomalies fmt w.w_anomalies;
  Serial.pp_corruption fmt w.w_corruption;
  Option.iter (fun (edges, label) -> Serial.pp_cycle ~label fmt edges) w.w_cycle;
  Serial.pp_opacity fmt w.w_opacity;
  Lockset.pp_witness fmt w.w_lockset;
  Liveness.pp_witness fmt w.w_liveness

let report v w = Format.asprintf "%a%a" pp_verdict v pp_sections w

let report_string t =
  let v = finish t in
  report v (witness t)

let conclude ?witness_file v w =
  Format.printf "%a" pp_verdict v;
  let ok = passed v in
  if not ok then begin
    Format.printf "%a" pp_sections w;
    Option.iter
      (fun path ->
        let oc = open_out path in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () -> output_string oc (report v w));
        Printf.printf "wrote witness to %s\n" path)
      witness_file
  end;
  ok
