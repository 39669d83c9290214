(* Tests for the benchmark applications in their sequential (bare)
   forms, host-side helpers, and property-based model checks. *)

open Tm2c_core
open Tm2c_apps
open Tm2c_engine

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let make_runtime ?(seed = 42) () =
  Runtime.create
    {
      Runtime.platform = Tm2c_noc.Platform.scc;
      total_cores = 4;
      service_cores = 2;
      deployment = Runtime.Dedicated;
      policy = Cm.Fair_cm;
      wmode = Tx.Lazy;
      batching = true;
      seed;
    }

(* Run a sequential (direct-access) workload on one simulated core. *)
let on_core t f =
  let core = (Runtime.app_cores t).(0) in
  Tm2c_engine.Sim.spawn (Runtime.sim t) (fun () -> f core);
  let _ = Runtime.run t ~until:1e12 () in
  ()

(* ---- Hash table ---- *)

let test_ht_populate () =
  let t = make_runtime () in
  let ht = Hashtable.create t ~n_buckets:16 in
  Hashtable.populate ht (Runtime.fork_prng t) ~n:64 ~key_range:512;
  check_int "populated size" 64 (Hashtable.size ht);
  Hashtable.check_invariants ht;
  check_int "to_list agrees" 64 (List.length (Hashtable.to_list ht))

let test_ht_seq_ops () =
  let t = make_runtime () in
  let ht = Hashtable.create t ~n_buckets:8 in
  let env = Runtime.env t in
  on_core t (fun core ->
      check "add new" true (Hashtable.seq_add env ~core ht 5);
      check "add duplicate" false (Hashtable.seq_add env ~core ht 5);
      check "contains" true (Hashtable.seq_contains env ~core ht 5);
      check "not contains" false (Hashtable.seq_contains env ~core ht 6);
      check "remove" true (Hashtable.seq_remove env ~core ht 5);
      check "remove absent" false (Hashtable.seq_remove env ~core ht 5));
  check_int "empty at end" 0 (Hashtable.size ht)

let ht_seq_model =
  QCheck.Test.make ~name:"hash table agrees with a set model (sequential)" ~count:30
    QCheck.(list_of_size (Gen.int_range 0 80) (pair (int_bound 2) (int_bound 50)))
    (fun ops ->
      let t = make_runtime () in
      let ht = Hashtable.create t ~n_buckets:4 in
      let env = Runtime.env t in
      let model = Hashtbl.create 32 in
      let ok = ref true in
      on_core t (fun core ->
          List.iter
            (fun (op, k) ->
              match op with
              | 0 ->
                  let expect = not (Hashtbl.mem model k) in
                  if expect then Hashtbl.replace model k ();
                  if Hashtable.seq_add env ~core ht k <> expect then ok := false
              | 1 ->
                  let expect = Hashtbl.mem model k in
                  Hashtbl.remove model k;
                  if Hashtable.seq_remove env ~core ht k <> expect then ok := false
              | _ ->
                  if Hashtable.seq_contains env ~core ht k <> Hashtbl.mem model k
                  then ok := false)
            ops);
      Hashtable.check_invariants ht;
      !ok && Hashtable.size ht = Hashtbl.length model)

(* ---- Linked list ---- *)

let test_list_seq_ops () =
  let t = make_runtime () in
  let l = Linkedlist.create t in
  let env = Runtime.env t in
  on_core t (fun core ->
      check "add 3" true (Linkedlist.seq_add env ~core l 3);
      check "add 1" true (Linkedlist.seq_add env ~core l 1);
      check "add 2" true (Linkedlist.seq_add env ~core l 2);
      check "add 2 again" false (Linkedlist.seq_add env ~core l 2);
      check "contains 2" true (Linkedlist.seq_contains env ~core l 2);
      check "remove 2" true (Linkedlist.seq_remove env ~core l 2));
  Alcotest.(check (list int)) "sorted contents" [ 1; 3 ] (Linkedlist.to_list l);
  Linkedlist.check_invariants l

let test_list_populate () =
  let t = make_runtime () in
  let l = Linkedlist.create t in
  Linkedlist.populate l (Runtime.fork_prng t) ~n:50 ~key_range:500;
  check_int "size" 50 (Linkedlist.size l);
  Linkedlist.check_invariants l

let list_seq_model =
  QCheck.Test.make ~name:"linked list agrees with a set model (sequential)" ~count:30
    QCheck.(list_of_size (Gen.int_range 0 60) (pair (int_bound 2) (int_bound 30)))
    (fun ops ->
      let t = make_runtime () in
      let l = Linkedlist.create t in
      let env = Runtime.env t in
      let model = Hashtbl.create 32 in
      let ok = ref true in
      on_core t (fun core ->
          List.iter
            (fun (op, k) ->
              match op with
              | 0 ->
                  let expect = not (Hashtbl.mem model k) in
                  if expect then Hashtbl.replace model k ();
                  if Linkedlist.seq_add env ~core l k <> expect then ok := false
              | 1 ->
                  let expect = Hashtbl.mem model k in
                  Hashtbl.remove model k;
                  if Linkedlist.seq_remove env ~core l k <> expect then ok := false
              | _ ->
                  if Linkedlist.seq_contains env ~core l k <> Hashtbl.mem model k
                  then ok := false)
            ops);
      Linkedlist.check_invariants l;
      !ok
      && List.sort compare (Linkedlist.to_list l)
         = List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) model []))

(* ---- Bank ---- *)

let test_bank_seq () =
  let t = make_runtime () in
  let bank = Bank.create t ~accounts:8 ~initial:100 in
  let env = Runtime.env t in
  on_core t (fun core ->
      Bank.seq_transfer env ~core bank ~src:0 ~dst:1 ~amount:30;
      check_int "balance sums" 800 (Bank.seq_balance env ~core bank));
  check_int "total conserved" 800 (Bank.total bank)

let test_bank_lock () =
  let t = make_runtime () in
  let bank = Bank.create t ~accounts:8 ~initial:50 in
  let env = Runtime.env t in
  let prng = Runtime.fork_prng t in
  on_core t (fun core ->
      for _ = 1 to 20 do
        Bank.lock_transfer env ~core ~prng bank ~src:(Prng.int prng 8)
          ~dst:(Prng.int prng 8) ~amount:1
      done;
      check_int "lock balance" 400 (Bank.lock_balance env ~core ~prng bank));
  check_int "lock total conserved" 400 (Bank.total bank)

let test_bank_lock_mutual_exclusion () =
  (* Many cores through the global lock: still conserved, and lost
     updates impossible. *)
  let t =
    Runtime.create
      {
        (Runtime.config (make_runtime ())) with
        total_cores = 8;
        deployment = Runtime.Multitask;
        service_cores = 8;
      }
  in
  let bank = Bank.create t ~accounts:4 ~initial:1000 in
  let env = Runtime.env t in
  Array.iter
    (fun core ->
      let prng = Runtime.fork_prng t in
      Runtime.spawn_app t core (fun () ->
          for _ = 1 to 50 do
            Bank.lock_transfer env ~core ~prng bank ~src:(Prng.int prng 4)
              ~dst:(Prng.int prng 4) ~amount:1
          done))
    (Runtime.app_cores t);
  let _ = Runtime.run t ~until:1e12 () in
  check_int "conserved under concurrency" 4000 (Bank.total bank)

let bank_transfers_conserve =
  QCheck.Test.make ~name:"random sequential transfers conserve the total" ~count:30
    QCheck.(list_of_size (Gen.int_range 0 40) (tup3 (int_bound 7) (int_bound 7) (int_bound 20)))
    (fun transfers ->
      let t = make_runtime () in
      let bank = Bank.create t ~accounts:8 ~initial:100 in
      let env = Runtime.env t in
      on_core t (fun core ->
          List.iter
            (fun (src, dst, amount) -> Bank.seq_transfer env ~core bank ~src ~dst ~amount)
            transfers);
      Bank.total bank = 800)

(* ---- MapReduce ---- *)

let test_mapreduce_seq () =
  let t = make_runtime () in
  let mr = Mapreduce.create t ~seed:11 ~input_bytes:(32 * 1024) ~chunk_bytes:4096 in
  check_int "chunk count" 8 (Mapreduce.n_chunks mr);
  let env = Runtime.env t in
  on_core t (fun core -> Mapreduce.sequential env ~core mr);
  check "sequential histogram exact" true
    (Mapreduce.histogram mr = Mapreduce.expected_histogram mr);
  check_int "histogram sums to input size" (32 * 1024)
    (Array.fold_left ( + ) 0 (Mapreduce.histogram mr))

let test_mapreduce_ragged_tail () =
  let t = make_runtime () in
  (* Input not a multiple of the chunk size: the last chunk is short. *)
  let mr = Mapreduce.create t ~seed:5 ~input_bytes:10_000 ~chunk_bytes:4096 in
  check_int "ceil division" 3 (Mapreduce.n_chunks mr);
  let env = Runtime.env t in
  on_core t (fun core -> Mapreduce.sequential env ~core mr);
  check_int "all bytes counted" 10_000 (Array.fold_left ( + ) 0 (Mapreduce.histogram mr))

let suite =
  [
    ("hashtable: populate", `Quick, test_ht_populate);
    ("hashtable: sequential ops", `Quick, test_ht_seq_ops);
    QCheck_alcotest.to_alcotest ht_seq_model;
    ("linkedlist: sequential ops", `Quick, test_list_seq_ops);
    ("linkedlist: populate", `Quick, test_list_populate);
    QCheck_alcotest.to_alcotest list_seq_model;
    ("bank: sequential", `Quick, test_bank_seq);
    ("bank: global lock", `Quick, test_bank_lock);
    ("bank: lock mutual exclusion", `Quick, test_bank_lock_mutual_exclusion);
    QCheck_alcotest.to_alcotest bank_transfers_conserve;
    ("mapreduce: sequential histogram", `Quick, test_mapreduce_seq);
    ("mapreduce: ragged tail chunk", `Quick, test_mapreduce_ragged_tail);
  ]
