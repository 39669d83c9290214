(* Serializability + opacity oracle: a multi-version
   serialization-graph test over the serialized transactions of a
   reconstructed history, plus a snapshot-consistency check over the
   attempts that never serialized.

   Serialized attempts — committed ones, plus attempts frozen by the
   run horizon after their publish point (their write-back is already
   visible and their status word can no longer be CASed, so they are
   committed in all but the final event) — are replayed in publish
   order against versioned shared memory: every write installs a new
   version stamped with the writer's publish sequence point. Each
   granted read is then resolved to the version it actually observed
   by matching the traced (seq, value) pair: normally the latest
   version published before the sample instant, otherwise an older
   (stale) or later version with the observed value. The resolution
   induces the usual MVSG edges

     WR  T' -> T    T read the version T' installed
     WW  T' -> T''  consecutive versions of one address
     RW  T  -> T''  T read a version that T'' overwrote next

   and the history is serializable iff this graph is acyclic. A cycle
   is reported with a minimal witness: the transactions on it and, for
   each hop, the edge kind, address, and inducing sequence point.

   Opacity goes further: attempts that aborted (or were cut off by the
   horizon before publishing) must also have observed a consistent
   snapshot — TM2C's visible-read protocol promises that even doomed
   transactions never see a state no serial execution could reach.
   Each such attempt's read prefix is checked against the installed
   version timeline: a read of (addr, value) at sequence point s is
   explainable by any snapshot instant inside a version interval
   [pub, next_pub) whose value matches and whose publish precedes s.
   The attempt is opaque iff the intersection of its reads'
   explainable-instant sets is nonempty; when it first becomes empty
   the two irreconcilable reads (and the versions they pin) form a
   minimal witness.

   Initial memory state is untraced (the harness populates structures
   with host-side pokes before the measured region), so every address
   starts from a lazily-bound initial version: the first read that
   can only be explained by the initial state binds its value. An
   unbound initial version matches any observed value — the oracle
   never invents a violation out of unobservable setup state. *)

open Tm2c_core

type edge_kind = Wr | Ww | Rw

let edge_kind_to_string = function Wr -> "WR" | Ww -> "WW" | Rw -> "RW"

type edge = {
  e_from : int;
  e_to : int;
  e_kind : edge_kind;
  e_addr : Types.addr;
  e_seq : int;
}

type cycle = { c_txns : int list; c_edges : edge list }

type inconsistent_read = {
  ir_core : Types.core_id;
  ir_attempt : int;
  ir_start_seq : int;
  ir_end_seq : int;
  ir_addr1 : Types.addr;
  ir_value1 : int;
  ir_seq1 : int;
  ir_pub1 : int;
  ir_addr2 : Types.addr;
  ir_value2 : int;
  ir_seq2 : int;
  ir_pub2 : int;
}

type report = {
  txns : History.attempt array;
  n_reads_checked : int;
  n_reads_skipped : int;
  corruption : string list;
  cycle : cycle option;
  opacity : inconsistent_read list;
  n_opacity_checked : int;
}

let ok r = r.corruption = [] && r.cycle = None && r.opacity = []

(* A version of one address. [v_writer = None] is the lazily-bound
   initial version or an external host write; its [v_pub_seq] of -1
   (initial) precedes every event. *)
type version = {
  v_writer : int option;
  mutable v_value : int option;
  v_pub_seq : int;
}

let pub_key (a : History.attempt) =
  match a.History.a_publish_seq with Some s -> s | None -> a.History.a_end_seq

(* An attempt whose writes are visible: committed, or cut off by the
   horizon after its publish point (write-back done, status word
   un-CASable — committed in all but the final event). *)
let serialized (a : History.attempt) =
  match a.History.a_outcome with
  | History.Committed _ -> true
  | History.Unfinished -> a.History.a_publish_seq <> None
  | History.Aborted _ -> false

exception Found_cycle of int list

(* Iterative three-color DFS; a gray successor closes a cycle, which
   we read back off the parent chain. The explicit stack is threaded
   through a tail-recursive driver so every pop is a total match. *)
let find_cycle n succ =
  let state = Array.make n 0 and parent = Array.make n (-1) in
  try
    for s = 0 to n - 1 do
      if state.(s) = 0 then begin
        state.(s) <- 1;
        let rec drive stack =
          match stack with
          | [] -> ()
          | (u, rest) :: below -> (
              match !rest with
              | [] ->
                  state.(u) <- 2;
                  drive below
              | v :: tl ->
                  rest := tl;
                  if state.(v) = 0 then begin
                    state.(v) <- 1;
                    parent.(v) <- u;
                    drive ((v, ref (succ v)) :: stack)
                  end
                  else begin
                    if state.(v) = 1 then begin
                      let rec walk acc x =
                        if x = v then v :: acc else walk (x :: acc) parent.(x)
                      in
                      raise (Found_cycle (walk [] u))
                    end;
                    drive stack
                  end)
        in
        drive [ (s, ref (succ s)) ]
      end
    done;
    None
  with Found_cycle c -> Some c

(* --- Opacity: snapshot-interval machinery, shared with Stream. ---

   The snapshot line is the sequence-number axis. A read's
   explainable set is a union of half-open intervals; the sets are
   kept as sorted disjoint-or-adjacent lists and intersected by a
   linear sweep. *)

let intersect_intervals u1 u2 =
  let rec go acc l1 l2 =
    match (l1, l2) with
    | [], _ | _, [] -> List.rev acc
    | (lo1, hi1) :: t1, (lo2, hi2) :: t2 ->
        let lo = max lo1 lo2 and hi = min hi1 hi2 in
        let acc = if lo < hi then (lo, hi) :: acc else acc in
        if hi1 <= hi2 then go acc t1 l2 else go acc l1 t2
  in
  go [] u1 u2

(* Intervals on which [r] is explainable, given the address's version
   timeline as a pub-sorted [(pub_seq, value option)] array (value
   [None] = unbound initial state, which matches anything). Only
   versions published before the sample instant qualify — a read
   cannot observe the future — but an interval may extend past it. *)
let read_intervals (view : (int * int option) array) (r : History.read) =
  let n = Array.length view in
  let out = ref [] in
  for j = n - 1 downto 0 do
    let pub, value = view.(j) in
    if
      pub <= r.History.r_seq
      && (match value with None -> true | Some v -> v = r.History.r_value)
    then
      let hi = if j + 1 < n then fst view.(j + 1) else max_int in
      if pub < hi then out := (pub, hi) :: !out
  done;
  !out

(* The version the read most plausibly observed (latest matching
   publish before the sample), for witness detail; -1 when nothing
   matches. *)
let timing_pub (view : (int * int option) array) (r : History.read) =
  let best = ref (-1) in
  Array.iter
    (fun (pub, value) ->
      if
        pub <= r.History.r_seq && pub > !best
        && (match value with None -> true | Some v -> v = r.History.r_value)
      then best := pub)
    view;
  !best

(* Check one non-serialized attempt's read prefix for snapshot
   consistency. [versions_of addr] returns the pub-sorted version
   timeline of [addr]. The snapshot instant is constrained to the
   attempt's lifetime (>= its start sequence): a version published
   earlier still explains a read as long as it is live at the start,
   but the window before the attempt existed — in particular the
   unbound initial state before the host-side setup stores — cannot.
   Returns the minimal witness on failure: the first read whose
   explainable set empties the running intersection, paired with the
   earliest previous read it is pairwise irreconcilable with. *)
let opacity_check ~versions_of (a : History.attempt) =
  let witness (r1 : History.read) (r2 : History.read) =
    Some
      {
        ir_core = a.History.a_core;
        ir_attempt = a.History.a_number;
        ir_start_seq = a.History.a_start_seq;
        ir_end_seq = a.History.a_end_seq;
        ir_addr1 = r1.History.r_addr;
        ir_value1 = r1.History.r_value;
        ir_seq1 = r1.History.r_seq;
        ir_pub1 = timing_pub (versions_of r1.History.r_addr) r1;
        ir_addr2 = r2.History.r_addr;
        ir_value2 = r2.History.r_value;
        ir_seq2 = r2.History.r_seq;
        ir_pub2 = timing_pub (versions_of r2.History.r_addr) r2;
      }
  in
  let life = [ (a.History.a_start_seq, max_int) ] in
  let explainable (r : History.read) =
    intersect_intervals life (read_intervals (versions_of r.History.r_addr) r)
  in
  let rec go feasible seen = function
    | [] -> None
    | (r : History.read) :: rest -> (
        let u = explainable r in
        match intersect_intervals feasible u with
        | _ :: _ as f -> go f (r :: seen) rest
        | [] -> (
            if u = [] then witness r r
            else
              (* Minimal two-read witness: the earliest previous read
                 pairwise irreconcilable with this one. When the
                 emptiness only arises from three or more reads
                 jointly (interval unions are not Helly), fall back to
                 the prefix's first read. *)
              let prev = List.rev seen in
              match
                List.find_opt
                  (fun (p : History.read) -> intersect_intervals (explainable p) u = [])
                  prev
              with
              | Some p -> witness p r
              | None -> (
                  match prev with [] -> witness r r | p :: _ -> witness p r)))
  in
  go life [] a.History.a_reads

let corrupt_read (a : History.attempt) (r : History.read) =
  Printf.sprintf
    "core %d attempt %d read addr=%d value=%d at seq %d: value matches no \
     installed version"
    a.History.a_core a.History.a_number r.History.r_addr r.History.r_value
    r.History.r_seq

let analyze ?(opacity = true) (h : History.t) =
  let txns = Array.of_list (List.filter serialized h.History.attempts) in
  Array.sort (fun a b -> compare (pub_key a) (pub_key b)) txns;
  let n = Array.length txns in
  (* Versioned memory: oldest-first version array per address, index 0
     always the initial version. Serialized write sets and host-side
     stores ([Event.Host_write]: setup, private-node initialization —
     external versions with no graph node) interleave by their
     sequence points. *)
  let versions : (Types.addr, version array) Hashtbl.t = Hashtbl.create 256 in
  let bottom () = { v_writer = None; v_value = None; v_pub_seq = -1 } in
  let pending : (Types.addr, version list) Hashtbl.t = Hashtbl.create 256 in
  let push addr v =
    let prev =
      match Hashtbl.find_opt pending addr with Some vs -> vs | None -> []
    in
    Hashtbl.replace pending addr (v :: prev)
  in
  Array.iteri
    (fun i a ->
      List.iter
        (fun (addr, value) ->
          push addr
            { v_writer = Some i; v_value = Some value; v_pub_seq = pub_key a })
        a.History.a_writes)
    txns;
  List.iter
    (fun (seq, addr, value) ->
      push addr { v_writer = None; v_value = Some value; v_pub_seq = seq })
    h.History.host_writes;
  Tm2c_engine.Det.iter
    (fun addr vs ->
      let sorted =
        List.sort (fun a b -> compare a.v_pub_seq b.v_pub_seq) (bottom () :: vs)
      in
      Hashtbl.replace versions addr (Array.of_list sorted))
    pending;
  let get_versions addr =
    match Hashtbl.find_opt versions addr with
    | Some vs -> vs
    | None ->
        let vs = [| bottom () |] in
        Hashtbl.replace versions addr vs;
        vs
  in
  (* Edge set keyed on (from, to); the first inducing observation is
     kept as the witness detail. *)
  let edges : (int * int, edge) Hashtbl.t = Hashtbl.create 1024 in
  let add_edge e_from e_to e_kind e_addr e_seq =
    if e_from <> e_to && not (Hashtbl.mem edges (e_from, e_to)) then
      Hashtbl.add edges (e_from, e_to) { e_from; e_to; e_kind; e_addr; e_seq }
  in
  (* The next transactional version at or after index [j] — external
     (host-write) versions have no graph node and are skipped. *)
  let next_writer vs j =
    let rec go j =
      if j >= Array.length vs then None
      else match vs.(j).v_writer with Some w -> Some (w, j) | None -> go (j + 1)
    in
    go j
  in
  (* WW edges: the installed version order per address, linking each
     transactional writer to the next one. Sorted traversal keeps the
     first-witness edge details stable across runs. *)
  Tm2c_engine.Det.iter
    (fun addr vs ->
      for j = 0 to Array.length vs - 2 do
        match vs.(j).v_writer with
        | Some w -> (
            match next_writer vs (j + 1) with
            | Some (w', j') -> add_edge w w' Ww addr vs.(j').v_pub_seq
            | None -> ())
        | None -> ()
      done)
    versions;
  let n_reads_checked = ref 0 in
  let n_reads_skipped = ref 0 in
  let corruption = ref [] in
  (* Resolve one read to the version index it observed, or None when
     the value matches no version (corruption). Preference order:
     the timing-predicted version, then the nearest stale version,
     then a future version, then binding the initial version. *)
  let resolve vs (r : History.read) =
    let n = Array.length vs in
    let pred = ref 0 in
    for j = 0 to n - 1 do
      if vs.(j).v_pub_seq < r.History.r_seq then pred := j
    done;
    let matches j =
      match vs.(j).v_value with Some v -> v = r.History.r_value | None -> false
    in
    if matches !pred then Some !pred
    else if vs.(!pred).v_value = None then begin
      vs.(!pred).v_value <- Some r.History.r_value;
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
        else if vs.(0).v_value = None then begin
          vs.(0).v_value <- Some r.History.r_value;
          Some 0
        end
        else None
      end
    end
  in
  Array.iteri
    (fun i a ->
      if a.History.a_elastic then
        (* Elastic attempts intentionally run a relaxed model (window
           validation instead of full read locking): their partial
           read traces are excluded from the strict oracle. *)
        n_reads_skipped := !n_reads_skipped + List.length a.History.a_reads
      else
        List.iter
          (fun (r : History.read) ->
            incr n_reads_checked;
            let vs = get_versions r.History.r_addr in
            match resolve vs r with
            | None ->
                corruption := corrupt_read a r :: !corruption
            | Some j -> (
                (match vs.(j).v_writer with
                | Some w -> add_edge w i Wr r.History.r_addr r.History.r_seq
                | None -> ());
                match next_writer vs (j + 1) with
                | Some (w, _) -> add_edge i w Rw r.History.r_addr r.History.r_seq
                | None -> ()))
          a.History.a_reads)
    txns;
  (* Opacity pass, after replay so lazily-bound initial versions carry
     their concrete values: every attempt that never serialized (abort
     or pre-publish horizon cut) must still have read one consistent
     snapshot. Elastic attempts are exempt — early read-lock release
     is precisely a license to span snapshots, validated by their own
     windowed rule instead. *)
  let opacity_violations = ref [] in
  let n_opacity_checked = ref 0 in
  if opacity then begin
    let view_cache : (Types.addr, (int * int option) array) Hashtbl.t =
      Hashtbl.create 256
    in
    let versions_of addr =
      match Hashtbl.find_opt view_cache addr with
      | Some v -> v
      | None ->
          let v =
            Array.map (fun v -> (v.v_pub_seq, v.v_value)) (get_versions addr)
          in
          Hashtbl.replace view_cache addr v;
          v
    in
    List.iter
      (fun (a : History.attempt) ->
        if (not (serialized a)) && not a.History.a_elastic then begin
          incr n_opacity_checked;
          match opacity_check ~versions_of a with
          | Some ir -> opacity_violations := ir :: !opacity_violations
          | None -> ()
        end)
      h.History.attempts
  end;
  let succs = Array.make (max n 1) [] in
  Tm2c_engine.Det.iter (fun (f, t) _ -> succs.(f) <- t :: succs.(f)) edges;
  (* Deterministic traversal order for a stable witness. *)
  Array.iteri (fun i l -> succs.(i) <- List.sort_uniq compare l) succs;
  let cycle =
    match find_cycle n (fun u -> succs.(u)) with
    | None -> None
    | Some nodes ->
        let hops =
          match nodes with
          | [] -> []
          | first :: _ ->
              let rec pair = function
                | [ last ] -> [ (last, first) ]
                | x :: (y :: _ as rest) -> (x, y) :: pair rest
                | [] -> []
              in
              pair nodes
        in
        let c_edges = List.map (fun k -> Hashtbl.find edges k) hops in
        Some { c_txns = nodes; c_edges }
  in
  {
    txns;
    n_reads_checked = !n_reads_checked;
    n_reads_skipped = !n_reads_skipped;
    corruption = List.rev !corruption;
    cycle;
    opacity = List.rev !opacity_violations;
    n_opacity_checked = !n_opacity_checked;
  }

(* --- Witness rendering, shared by the batch and streaming checkers. --- *)

let txn_label id ~core ~attempt ~published =
  Printf.sprintf "T%d[core %d attempt %d, published @%.0fns]" id core attempt
    published

let pp_corruption fmt corruption =
  List.iter
    (fun msg -> Format.fprintf fmt "@.== value corruption ==@.  %s@." msg)
    corruption

let pp_cycle ~label fmt edges =
  Format.fprintf fmt "@.== serializability violation: conflict-graph cycle ==@.";
  List.iter
    (fun e ->
      Format.fprintf fmt "  %s --%s addr=%d @seq %d--> %s@." (label e.e_from)
        (edge_kind_to_string e.e_kind)
        e.e_addr e.e_seq (label e.e_to))
    edges;
  Format.fprintf fmt
    "  no serial order of these transactions explains the observed reads@."

let pp_inconsistent_read fmt ir =
  let pp_pub fmt p =
    if p < 0 then Format.fprintf fmt "the initial state"
    else Format.fprintf fmt "the version published @seq %d" p
  in
  Format.fprintf fmt
    "  core %d attempt %d (seqs %d..%d) mixed two snapshots:@.    read addr=%d \
     value=%d @seq %d — %a@.    read addr=%d value=%d @seq %d — %a@.  no \
     single memory snapshot explains both reads@."
    ir.ir_core ir.ir_attempt ir.ir_start_seq ir.ir_end_seq ir.ir_addr1
    ir.ir_value1 ir.ir_seq1 pp_pub ir.ir_pub1 ir.ir_addr2 ir.ir_value2
    ir.ir_seq2 pp_pub ir.ir_pub2

let pp_opacity fmt = function
  | [] -> ()
  | irs ->
      Format.fprintf fmt "@.== opacity violations: inconsistent reads ==@.";
      List.iter (pp_inconsistent_read fmt) irs
