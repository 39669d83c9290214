(* Unit and property tests for the TM2C protocol pieces: status words,
   contention managers, lock table. *)

open Tm2c_core
open Tm2c_core.Types

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---- Status words ---- *)

let test_status_roundtrip () =
  List.iter
    (fun state ->
      List.iter
        (fun attempt ->
          let a, s = Status.decode (Status.encode ~attempt state) in
          check_int "attempt" attempt a;
          check "state" true (s = state))
        [ 0; 1; 17; 100000 ])
    [ Status.Pending; Status.Committing; Status.Aborted ]

let status_roundtrip_prop =
  QCheck.Test.make ~name:"status encode/decode roundtrip" ~count:300
    QCheck.(pair (int_bound 1000000) (int_bound 2))
    (fun (attempt, si) ->
      let state =
        match si with 0 -> Status.Pending | 1 -> Status.Committing | _ -> Status.Aborted
      in
      Status.decode (Status.encode ~attempt state) = (attempt, state))

(* ---- Contention managers ---- *)

let mk ?(attempt = 0) ?(start = 0.0) ?(committed = 0) ?(effective = 0.0) core =
  {
    h_core = core;
    h_attempt = attempt;
    h_committed = committed;
    h_clock =
      { h_est_start_ns = start; h_effective_ns = effective; h_granted_ns = start };
  }

let test_cm_names () =
  List.iter
    (fun p ->
      match Cm.of_string (Cm.name p) with
      | Some p' -> check "name roundtrip" true (p = p')
      | None -> Alcotest.failf "cannot parse %s" (Cm.name p))
    Cm.all;
  check "unknown policy" true (Cm.of_string "bogus" = None)

let test_cm_passive_policies () =
  (* No-CM and Back-off-Retry always abort the requester. *)
  List.iter
    (fun p ->
      check "requester loses" true
        (Cm.decide p ~requester:(mk 0) ~enemies:[ mk 1 ] = Cm.Requester_loses))
    [ Cm.No_cm; Cm.Backoff_retry ]

let test_cm_offset_greedy () =
  (* Older (smaller estimated start) wins. *)
  check "older requester wins" true
    (Cm.decide Cm.Offset_greedy ~requester:(mk ~start:10.0 5)
       ~enemies:[ mk ~start:20.0 1; mk ~start:30.0 2 ]
    = Cm.Enemies_lose);
  check "younger requester loses" true
    (Cm.decide Cm.Offset_greedy ~requester:(mk ~start:25.0 5)
       ~enemies:[ mk ~start:20.0 1; mk ~start:30.0 2 ]
    = Cm.Requester_loses)

let test_cm_wholly () =
  (* The node that committed the most transactions is aborted. *)
  check "fewer commits wins" true
    (Cm.decide Cm.Wholly ~requester:(mk ~committed:1 5) ~enemies:[ mk ~committed:2 1 ]
    = Cm.Enemies_lose);
  check "more commits loses" true
    (Cm.decide Cm.Wholly ~requester:(mk ~committed:3 5) ~enemies:[ mk ~committed:2 1 ]
    = Cm.Requester_loses);
  (* Tie broken by core id. *)
  check "tie: smaller id wins" true
    (Cm.decide Cm.Wholly ~requester:(mk ~committed:2 0) ~enemies:[ mk ~committed:2 1 ]
    = Cm.Enemies_lose)

let test_cm_faircm () =
  (* Less cumulative effective time wins: FairCM penalizes the
     long-transaction core (Section 4.5). *)
  check "short-tx core wins" true
    (Cm.decide Cm.Fair_cm ~requester:(mk ~effective:100.0 5)
       ~enemies:[ mk ~effective:5000.0 1 ]
    = Cm.Enemies_lose);
  check "long-tx core loses" true
    (Cm.decide Cm.Fair_cm ~requester:(mk ~effective:5000.0 5)
       ~enemies:[ mk ~effective:100.0 1 ]
    = Cm.Requester_loses)

let test_cm_must_beat_all () =
  (* The requester must beat every enemy to win. *)
  check "one stronger enemy suffices" true
    (Cm.decide Cm.Fair_cm ~requester:(mk ~effective:50.0 5)
       ~enemies:[ mk ~effective:100.0 1; mk ~effective:10.0 2 ]
    = Cm.Requester_loses)

let test_cm_flags () =
  check "FairCM starvation-free" true (Cm.starvation_free Cm.Fair_cm);
  check "Wholly starvation-free" true (Cm.starvation_free Cm.Wholly);
  check "Offset-Greedy not" false (Cm.starvation_free Cm.Offset_greedy);
  check "backoff only for Back-off-Retry" true
    (Cm.uses_backoff Cm.Backoff_retry && not (Cm.uses_backoff Cm.Fair_cm))

(* Property 1 rule (b): priorities define a total order. *)
let holder_gen =
  QCheck.Gen.(
    map
      (fun (core, start, committed, effective) ->
        mk ~start:(float_of_int start) ~committed
          ~effective:(float_of_int effective) core)
      (tup4 (int_bound 47) (int_bound 100) (int_bound 100) (int_bound 100)))

let holder_arb = QCheck.make ~print:(fun h -> Printf.sprintf "core%d" h.h_core) holder_gen

let cm_total_order =
  QCheck.Test.make ~name:"priorities are a strict total order" ~count:500
    QCheck.(triple holder_arb holder_arb holder_arb)
    (fun (a, b, c) ->
      List.for_all
        (fun p ->
          let beats = Cm.beats p in
          (* Antisymmetry. *)
          (not (beats a b && beats b a))
          (* Totality on distinct cores. *)
          && (a.h_core = b.h_core || beats a b || beats b a)
          (* Transitivity. *)
          && (not (beats a b && beats b c) || beats a c))
        [ Cm.Offset_greedy; Cm.Wholly; Cm.Fair_cm ])

let cm_decide_consistent =
  QCheck.Test.make ~name:"decide wins iff requester beats every enemy" ~count:300
    QCheck.(pair holder_arb (list_of_size (Gen.int_range 1 5) holder_arb))
    (fun (req, enemies) ->
      let enemies = List.filter (fun e -> e.h_core <> req.h_core) enemies in
      QCheck.assume (enemies <> []);
      List.for_all
        (fun p ->
          let expect =
            if List.for_all (fun e -> Cm.beats p req e) enemies then Cm.Enemies_lose
            else Cm.Requester_loses
          in
          Cm.decide p ~requester:req ~enemies = expect)
        Cm.all)

(* ---- Lock table ---- *)

let test_locktable_readers () =
  let lt = Locktable.create () in
  Locktable.add_reader lt 7 (mk ~attempt:1 3);
  Locktable.add_reader lt 7 (mk ~attempt:1 4);
  let e = Locktable.entry lt 7 in
  check_int "two readers" 2 (List.length e.Locktable.readers);
  (* Same core re-acquiring replaces its entry. *)
  Locktable.add_reader lt 7 (mk ~attempt:2 3);
  let e = Locktable.entry lt 7 in
  check_int "still two readers" 2 (List.length e.Locktable.readers);
  check "attempt updated" true
    (List.exists (fun r -> r.h_core = 3 && r.h_attempt = 2) e.Locktable.readers);
  Locktable.check_invariants lt

let test_locktable_release_attempt_checked () =
  let lt = Locktable.create () in
  Locktable.add_reader lt 9 (mk ~attempt:5 2);
  (* A stale release (older attempt) is ignored. *)
  Locktable.remove_reader lt 9 ~core:2 ~attempt:4;
  check_int "stale release ignored" 1 (Locktable.n_locked lt);
  Locktable.remove_reader lt 9 ~core:2 ~attempt:5;
  check_int "matching release applies" 0 (Locktable.n_locked lt)

let test_locktable_writer () =
  let lt = Locktable.create () in
  Locktable.set_writer lt 3 (mk ~attempt:1 6);
  check "writer set" true ((Locktable.entry lt 3).Locktable.writer <> None);
  Locktable.clear_writer lt 3 ~core:6 ~attempt:0;
  check "stale clear ignored" true ((Locktable.entry lt 3).Locktable.writer <> None);
  Locktable.clear_writer lt 3 ~core:6 ~attempt:1;
  check "matching clear applies" true (Locktable.find lt 3 = None)

let test_locktable_revoke () =
  let lt = Locktable.create () in
  Locktable.add_reader lt 1 (mk 2);
  Locktable.add_reader lt 1 (mk 3);
  Locktable.revoke_reader lt 1 ~core:2;
  check_int "one reader left" 1
    (List.length (Locktable.entry lt 1).Locktable.readers);
  Locktable.set_writer lt 1 (mk 4);
  Locktable.revoke_writer lt 1;
  check "writer revoked" true ((Locktable.entry lt 1).Locktable.writer = None)

let test_locktable_readers_excluding () =
  let lt = Locktable.create () in
  Locktable.add_reader lt 2 (mk 1);
  Locktable.add_reader lt 2 (mk 5);
  let e = Locktable.entry lt 2 in
  check_int "excludes self" 1 (List.length (Locktable.readers_excluding e ~core:1));
  check_int "keeps others" 2 (List.length (Locktable.readers_excluding e ~core:9))

(* Random grants, releases and revocations, with current and stale
   attempts, against a model: a hash table of (writer, reader list)
   per address under the documented semantics. Besides the table's
   own invariants, every entry must equal the model's, so a release
   that ignores the attempt or a grant that keeps a core's old entry
   is caught. *)
let locktable_random_ops =
  QCheck.Test.make ~name:"locktable invariants under random ops" ~count:200
    QCheck.(
      list_of_size (Gen.int_range 0 200)
        (quad (int_bound 5) (int_bound 7) (int_bound 2) (int_bound 15)))
    (fun ops ->
      let lt = Locktable.create () in
      let model = Hashtbl.create 16 in
      let get a = Option.value ~default:(None, []) (Hashtbl.find_opt model a) in
      let put a = function
        | None, [] -> Hashtbl.remove model a
        | v -> Hashtbl.replace model a v
      in
      let drop core rs = List.filter (fun r -> r.h_core <> core) rs in
      List.iter
        (fun (op, core, attempt, addr) ->
          let w, rs = get addr in
          match op with
          | 0 ->
              let h = mk ~attempt core in
              Locktable.add_reader lt addr h;
              put addr (w, h :: drop core rs)
          | 1 ->
              Locktable.remove_reader lt addr ~core ~attempt;
              put addr
                (w, List.filter (fun r -> not (r.h_core = core && r.h_attempt = attempt)) rs)
          | 2 ->
              let h = mk ~attempt core in
              Locktable.set_writer lt addr h;
              put addr (Some h, rs)
          | 3 -> (
              Locktable.clear_writer lt addr ~core ~attempt;
              match w with
              | Some h when h.h_core = core && h.h_attempt = attempt -> put addr (None, rs)
              | Some _ | None -> ())
          | 4 ->
              Locktable.revoke_reader lt addr ~core;
              put addr (w, drop core rs)
          | _ ->
              Locktable.revoke_writer lt addr;
              put addr (None, rs))
        ops;
      Locktable.check_invariants lt;
      let seen = ref [] in
      Locktable.iter lt (fun a e ->
          seen := (a, (e.Locktable.writer, e.Locktable.readers)) :: !seen);
      List.rev !seen
      = List.sort compare (Hashtbl.fold (fun a v acc -> (a, v) :: acc) model [])
      && Locktable.n_locked lt = Hashtbl.length model)

(* The read set against a model: an association list, newest first.
   Adds, early releases and clears interleave over few addresses, so
   the table grows, reuses removed slots and starts new attempts. *)
let readset_random_ops =
  QCheck.Test.make ~name:"readset agrees with a list model" ~count:300
    QCheck.(
      list_of_size (Gen.int_range 0 200) (tup3 (int_bound 9) (int_bound 47) small_int))
    (fun ops ->
      let rs = Readset.create () in
      let model = ref [] in
      let agrees () =
        Readset.fold_newest (fun acc a -> a :: acc) [] rs = List.rev_map fst !model
        && List.for_all
             (fun a -> Readset.find_opt rs a = List.assoc_opt a !model)
             (List.init 48 Fun.id)
      in
      List.for_all
        (fun (op, addr, v) ->
          (match op with
          | 0 -> Readset.clear rs; model := []
          | 1 | 2 ->
              Readset.remove rs addr;
              model := List.remove_assoc addr !model
          | _ ->
              if not (List.mem_assoc addr !model) then begin
                Readset.add rs addr v;
                model := (addr, v) :: !model
              end);
          agrees ())
        ops)

let suite =
  [
    ("status: roundtrip", `Quick, test_status_roundtrip);
    QCheck_alcotest.to_alcotest status_roundtrip_prop;
    ("cm: names", `Quick, test_cm_names);
    ("cm: passive policies", `Quick, test_cm_passive_policies);
    ("cm: Offset-Greedy", `Quick, test_cm_offset_greedy);
    ("cm: Wholly", `Quick, test_cm_wholly);
    ("cm: FairCM", `Quick, test_cm_faircm);
    ("cm: must beat all enemies", `Quick, test_cm_must_beat_all);
    ("cm: starvation flags", `Quick, test_cm_flags);
    QCheck_alcotest.to_alcotest cm_total_order;
    QCheck_alcotest.to_alcotest cm_decide_consistent;
    ("locktable: readers", `Quick, test_locktable_readers);
    ("locktable: attempt-checked release", `Quick, test_locktable_release_attempt_checked);
    ("locktable: writer", `Quick, test_locktable_writer);
    ("locktable: revocation", `Quick, test_locktable_revoke);
    ("locktable: readers_excluding", `Quick, test_locktable_readers_excluding);
    QCheck_alcotest.to_alcotest locktable_random_ops;
    QCheck_alcotest.to_alcotest readset_random_ops;
  ]
