(* Serializability + opacity oracle; the model and the order both
   drivers judge in are stated in serial.mli.

   Serialized attempts install their writes in versioned shared
   memory: every write is a new version stamped with the writer's
   publish sequence point, host writes are versions with no graph
   node, and every address starts from a lazily-bound initial
   version. A granted read resolves to the version it observed by
   matching the traced (seq, value) pair: the newest version published
   before it, else an older (stale) one with its value, else the
   initial version, which the first read resolving to it binds. Reads
   are observed in trace order and each attempt judged once, when it
   closes, in both drivers. The resolution induces the usual MVSG
   edges

     WR  T' -> T    T read the version T' installed
     WW  T' -> T''  consecutive versions of one address
     RW  T  -> T''  T read a version that T'' overwrote next

   and the history is serializable iff this graph is acyclic; a cycle
   is reported with the transactions on it and, per hop, the edge
   kind, address and inducing sequence point.

   Opacity: a read of (addr, value) at sequence point s is explainable
   by any snapshot instant inside a version interval [pub, next_pub)
   whose value matches and whose publish precedes s. A never-serialized
   attempt is opaque iff its reads' explainable-instant sets intersect
   within its lifetime; when the intersection first empties, the two
   irreconcilable reads (and the versions they pin) are the witness.
   An initial version no read has bound explains any value: the
   oracle never invents a violation out of unobservable setup state. *)

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

type tally = {
  mutable reads_checked : int;
  mutable reads_skipped : int;
  mutable opacity_checked : int;
  mutable corruption : (int * string) list;  (* (publish key, msg), newest first *)
  mutable opacity : inconsistent_read list;  (* judgement order, newest first *)
}

let tally () =
  { reads_checked = 0; reads_skipped = 0; opacity_checked = 0; corruption = []; opacity = [] }

(* A version of one address. [v_writer] is the graph node of the
   serialized transaction that installed it, or -1 for the lazily-bound
   initial version and host writes. The initial version's [v_pub] of
   -1 precedes every event. Both drivers keep an address's versions as
   a list, newest first. *)
type version = { v_pub : int; mutable v_value : int option; v_writer : int }

let initial () = { v_pub = -1; v_value = None; v_writer = -1 }

let pub_key (a : History.attempt) =
  match a.History.a_publish_seq with Some s -> s | None -> a.History.a_end_seq

(* An attempt whose writes are visible: committed, or published — cut
   off by the horizon after its publish point (write-back done, status
   word un-CASable: committed in all but the final event), or aborted
   after it, which the history flags as an anomaly. *)
let serialized (a : History.attempt) =
  a.History.a_publish_seq <> None
  || match a.History.a_outcome with History.Committed _ -> true | _ -> false

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

(* --- Read resolution, shared with Stream. --- *)

let matches v (r : History.read) =
  match v.v_value with Some x -> x = r.History.r_value | None -> false

(* The resolver returns the timeline from the observed version on
   (that version first), and [] for none, so it allocates nothing. *)
let bind (r : History.read) = function
  | v :: _ as from ->
      v.v_value <- Some r.History.r_value;
      from
  | [] -> []

let rec stale r = function
  | [] -> []
  | v :: rest as from -> if matches v r then from else stale r rest

let rec oldest = function _ :: (_ :: _ as rest) -> oldest rest | last -> last

(* What a read observed in [vs], the address's timeline newest first;
   [] when its value matches no version published before it
   (corruption): a read never observes a later version. Preference
   order: the timing-predicted version (the newest published before
   the read), binding it if it is the unbound initial version; the
   nearest stale version; the initial version, binding it if unbound.
   The initial version precedes every read, so a timing-predicted
   version always exists. *)
let rec resolve vs (r : History.read) =
  match vs with
  | [] -> []
  | v :: rest ->
      if v.v_pub >= r.History.r_seq then resolve rest r
      else if matches v r then vs
      else if v.v_value = None then bind r vs
      else
        match stale r rest with
        | _ :: _ as found -> found
        | [] -> (
            match oldest vs with
            | o :: _ as last when o.v_value = None -> bind r last
            | _ -> [])

(* A granted read as it is traced: the first read to resolve to an
   unbound initial version binds it. *)
let observe vs r = ignore (resolve vs r)

(* The version just newer than [v] in [vs], or [v] itself if none. *)
let rec successor v newer = function
  | [] -> newer
  | x :: rest -> if x == v then newer else successor v x rest

let rec writer_after v w = function
  | [] -> w
  | x :: rest ->
      if x == v then w
      else writer_after v (if x.v_writer >= 0 then x.v_writer else w) rest

(* The graph node of the next transactional version after [v] in the
   newest-first timeline [vs], -1 if none: host writes have no node. *)
let next_writer vs v = writer_after v (-1) vs

(* An unbound initial version explains any value. *)
let explains v (r : History.read) =
  match v.v_value with None -> true | Some x -> x = r.History.r_value

(* Intervals on which [r] is explainable, given its address's
   newest-first timeline. Only versions published before the sample
   instant qualify — a read cannot observe the future — but an interval
   may extend past it, to the next version the driver holds: the batch
   holds versions published after the attempt closed, the stream does
   not, and every interval's start precedes the close, so whether the
   intervals intersect is the same in both. *)
let read_intervals vs (r : History.read) =
  let rec go hi acc = function
    | [] -> acc
    | v :: rest ->
        let acc =
          if v.v_pub <= r.History.r_seq && explains v r && v.v_pub < hi then
            (v.v_pub, hi) :: acc
          else acc
        in
        go v.v_pub acc rest
  in
  go max_int [] vs

(* The version the read most plausibly observed (latest matching
   publish before the sample), for witness detail; -1 when nothing
   matches. *)
let timing_pub vs (r : History.read) =
  match List.find_opt (fun v -> v.v_pub <= r.History.r_seq && explains v r) vs with
  | Some v -> v.v_pub
  | None -> -1

(* Check one non-serialized attempt's read prefix for snapshot
   consistency, its reads observed. [versions_of addr] is the
   newest-first timeline of [addr]. The snapshot instant is
   constrained to the attempt's lifetime (>= its start sequence): a
   version published earlier still explains a read as long as it is
   live at the start, but the window before the attempt existed — in
   particular the unbound initial state before the host-side setup
   stores — cannot. Returns the minimal witness on failure: the first
   read whose explainable set empties the running intersection, paired
   with the earliest previous read it is pairwise irreconcilable
   with. *)
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

let read_prefix (a : History.attempt) (r : History.read) =
  Printf.sprintf "core %d attempt %d read addr=%d value=%d at seq %d"
    a.History.a_core a.History.a_number r.History.r_addr r.History.r_value
    r.History.r_seq

let corrupt_read a r = read_prefix a r ^ ": value matches no installed version"

(* The publish point of the newest version published before [pub]. *)
let rec published_before pub = function
  | [] -> -1
  | v :: rest -> if v.v_pub < pub then v.v_pub else published_before pub rest

(* A serialized attempt, judged: each read resolves to a version,
   [on_version r v w] receiving it and [w], the graph node of the next
   transactional version (-1: none yet), or is corrupt. The attempt
   must then serialize at one instant: at or after its start, the
   versions it read and the versions its writes (installed at [pub])
   follow ([after]), and before the first overwrite of a version it
   read ([until], of [dead]'s version). *)
let judge_serialized ~versions_of ~on_version ~pub (a : History.attempt) =
  let corrupt = ref [] and dead = ref None in
  let after = ref a.History.a_start_seq and until = ref max_int in
  List.iter
    (fun (r : History.read) ->
      let vs = versions_of r.History.r_addr in
      (* Only the initial version is ever unbound, and [observe] bound
         it for this read if it was going to, so [resolve] finds the
         version it found then. *)
      match resolve vs r with
      | [] -> corrupt := corrupt_read a r :: !corrupt
      | v :: _ ->
          on_version r v (next_writer vs v);
          after := max !after v.v_pub;
          let next = successor v v vs in
          if next != v && next.v_pub < !until then begin
            until := next.v_pub;
            dead := Some r
          end)
    a.History.a_reads;
  List.iter
    (fun (addr, _) -> after := max !after (published_before pub (versions_of addr)))
    a.History.a_writes;
  match (!corrupt, !dead) with
  | [], Some r when !until <= !after ->
      [
        Printf.sprintf
          "%s: its version was overwritten at seq %d, and the attempt serializes \
           at seq %d or later"
          (read_prefix a r) !until !after;
      ]
  | corrupt, _ -> List.rev corrupt

let txn_label id ~core ~attempt ~published =
  Printf.sprintf "T%d[core %d attempt %d, published @%.0fns]" id core attempt
    published

(* The one judgement both drivers make when an attempt closes.
   Elastic attempts intentionally run a relaxed model (window
   validation instead of full read locking): their reads are excluded
   from both checks, and early read-lock release is precisely a
   license to span snapshots. *)
let judge t ~versions_of ~on_version (a : History.attempt) =
  if serialized a then begin
    let n = List.length a.History.a_reads in
    if a.History.a_elastic then t.reads_skipped <- t.reads_skipped + n
    else begin
      t.reads_checked <- t.reads_checked + n;
      let pub = pub_key a in
      List.iter
        (fun msg -> t.corruption <- (pub, msg) :: t.corruption)
        (judge_serialized ~versions_of ~on_version ~pub a)
    end
  end
  else if not a.History.a_elastic then begin
    t.opacity_checked <- t.opacity_checked + 1;
    match opacity_check ~versions_of a with
    | Some ir -> t.opacity <- ir :: t.opacity
    | None -> ()
  end

(* The report's listing orders, whatever order the attempts were
   judged in: corrupt reads by their attempt's publish point, then in
   read order, and opacity witnesses by attempt start. *)
let corrupt_reads t =
  List.map snd
    (List.stable_sort (fun (p, _) (q, _) -> Int.compare p q) (List.rev t.corruption))

let opacity_witnesses t =
  List.sort (fun x y -> Int.compare x.ir_start_seq y.ir_start_seq) t.opacity

type step = Read of History.attempt * History.read | Close of History.attempt

let analyze ~steps (h : History.t) =
  let txns = Array.of_list (List.filter serialized h.History.attempts) in
  Array.sort (fun a b -> compare (pub_key a) (pub_key b)) txns;
  let n = Array.length txns in
  let node_of_start = Hashtbl.create (max n 1) in
  Array.iteri (fun i a -> Hashtbl.replace node_of_start a.History.a_start_seq i) txns;
  (* Versioned memory: the complete timeline per address, newest first,
     the initial version last. Serialized write sets and host-side
     stores ([Event.Host_write]: setup, private-node initialization —
     external versions with no graph node) interleave by their
     sequence points. *)
  let versions : (Types.addr, version list) Hashtbl.t = Hashtbl.create 256 in
  let get_versions addr =
    match Hashtbl.find_opt versions addr with
    | Some vs -> vs
    | None ->
        let vs = [ initial () ] in
        Hashtbl.replace versions addr vs;
        vs
  in
  let push addr v = Hashtbl.replace versions addr (v :: get_versions addr) in
  Array.iteri
    (fun i a ->
      List.iter
        (fun (addr, value) ->
          push addr { v_pub = pub_key a; v_value = Some value; v_writer = i })
        a.History.a_writes)
    txns;
  List.iter
    (fun (seq, addr, value) ->
      push addr { v_pub = seq; v_value = Some value; v_writer = -1 })
    h.History.host_writes;
  Hashtbl.filter_map_inplace
    (fun _ vs -> Some (List.stable_sort (fun a b -> Int.compare b.v_pub a.v_pub) vs))
    versions;
  (* Edge set keyed on (from, to); the first inducing observation is
     kept as the witness detail. *)
  let edges : (int * int, edge) Hashtbl.t = Hashtbl.create 1024 in
  let add_edge e_from e_to e_kind e_addr e_seq =
    if e_from <> e_to && not (Hashtbl.mem edges (e_from, e_to)) then
      Hashtbl.add edges (e_from, e_to) { e_from; e_to; e_kind; e_addr; e_seq }
  in
  (* WW edges: the installed version order per address, linking each
     transactional writer to the next one (host writes have no node).
     Sorted traversal keeps the first-witness edge details stable
     across runs. *)
  Tm2c_engine.Det.iter
    (fun addr vs ->
      ignore
        (List.fold_left
           (fun next v ->
             if v.v_writer < 0 then next
             else begin
               Option.iter (fun w -> add_edge v.v_writer w.v_writer Ww addr w.v_pub) next;
               Some v
             end)
           None vs))
    versions;
  (* The stream's order: each read observed as it was traced, each
     attempt judged when it closed. *)
  let t = tally () in
  List.iter
    (function
      | Read (a, r) ->
          if not a.History.a_elastic then observe (get_versions r.History.r_addr) r
      | Close a ->
          (* Only a serialized attempt has a node, and only its reads
             reach [on_version]. *)
          let i =
            Option.value ~default:(-1) (Hashtbl.find_opt node_of_start a.History.a_start_seq)
          in
          judge t ~versions_of:get_versions a ~on_version:(fun (r : History.read) v w ->
              if v.v_writer >= 0 then add_edge v.v_writer i Wr r.History.r_addr r.History.r_seq;
              if w >= 0 then add_edge i w Rw r.History.r_addr r.History.r_seq))
    steps;
  let succs = Array.make (max n 1) [] in
  Tm2c_engine.Det.iter (fun (f, t) _ -> succs.(f) <- t :: succs.(f)) edges;
  (* Deterministic traversal order for a stable witness. *)
  Array.iteri (fun i l -> succs.(i) <- List.sort_uniq compare l) succs;
  let cycle =
    match find_cycle n (fun u -> succs.(u)) with
    | None -> None
    | Some [] -> None
    | Some (first :: _ as nodes) ->
        let rec pair = function
          | [ last ] -> [ (last, first) ]
          | x :: (y :: _ as rest) -> (x, y) :: pair rest
          | [] -> []
        in
        let label i =
          let a = txns.(i) in
          txn_label i ~core:a.History.a_core ~attempt:a.History.a_number
            ~published:a.History.a_publish_time
        in
        Some (List.map (fun k -> Hashtbl.find edges k) (pair nodes), label)
  in
  (t, cycle)

(* --- Witness rendering, shared by the batch and streaming checkers. --- *)

let pp_corruption fmt = function
  | [] -> ()
  | corruption ->
      Format.fprintf fmt "@.== value corruption ==@.";
      List.iter (fun msg -> Format.fprintf fmt "  %s@." msg) corruption

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
