(* End-to-end protocol tests: whole simulated machines running
   transactional workloads, checking atomicity, conservation,
   starvation-freedom and the elastic variants. *)

open Tm2c_core
open Tm2c_apps
open Tm2c_engine

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let cfg ?(platform = Tm2c_noc.Platform.scc) ?(policy = Cm.Fair_cm) ?(wmode = Tx.Lazy)
    ?(deployment = Runtime.Dedicated) ?(total = 8) ?(service = 4) ?(seed = 42) () =
  {
    Runtime.platform;
    total_cores = total;
    service_cores = service;
    deployment;
    policy;
    wmode;
    batching = true;
    seed;
  }

(* All application cores increment one shared counter [per_core] times
   each; the final value must be exact — lost updates are atomicity
   violations. *)
let run_counter cfg ~per_core =
  let t = Runtime.create cfg in
  let counter = Tm2c_memory.Alloc.alloc (Runtime.alloc t) ~words:1 in
  Runtime.start_services t;
  Array.iter
    (fun core ->
      let ctx = Runtime.app_ctx t core in
      Runtime.spawn_app t core (fun () ->
          for _ = 1 to per_core do
            Tx.atomic ctx (fun () -> Tx.write ctx counter (Tx.read ctx counter + 1));
            Runtime.poll_service t ~core
          done))
    (Runtime.app_cores t);
  let _ = Runtime.run t ~until:1e12 () in
  (t, Tm2c_memory.Shmem.peek (Runtime.shmem t) counter)

let test_counter_exact () =
  let c = cfg () in
  let t, final = run_counter c ~per_core:50 in
  check_int "no lost updates" (Array.length (Runtime.app_cores t) * 50) final

let test_counter_eager () =
  let c = cfg ~wmode:Tx.Eager () in
  let t, final = run_counter c ~per_core:50 in
  check_int "eager mode exact" (Array.length (Runtime.app_cores t) * 50) final

let test_counter_multitask () =
  let c = cfg ~deployment:Runtime.Multitask ~total:6 ~service:6 () in
  let t, final = run_counter c ~per_core:30 in
  check_int "multitask exact" (Array.length (Runtime.app_cores t) * 30) final

let test_counter_platforms () =
  List.iter
    (fun platform ->
      let c = cfg ~platform () in
      let t, final = run_counter c ~per_core:25 in
      check_int
        (Printf.sprintf "exact on %s" platform.Tm2c_noc.Platform.name)
        (Array.length (Runtime.app_cores t) * 25)
        final)
    Tm2c_noc.Platform.all

let test_counter_starvation_free_cms () =
  (* Wholly and FairCM must complete a fully-conflicting workload. *)
  List.iter
    (fun policy ->
      let c = cfg ~policy ~total:12 ~service:4 () in
      let t, final = run_counter c ~per_core:40 in
      check_int (Cm.name policy ^ " completes") (Array.length (Runtime.app_cores t) * 40) final;
      let worst = Stats.worst_attempts (Runtime.stats t) in
      check (Cm.name policy ^ " attempts bounded") true (worst < 500))
    [ Cm.Wholly; Cm.Fair_cm ]

(* Transactions are atomic: a transfer workload conserves the total. *)
let test_bank_conservation () =
  List.iter
    (fun policy ->
      let c = cfg ~policy ~total:8 ~service:4 () in
      let t = Runtime.create c in
      let bank = Bank.create t ~accounts:32 ~initial:100 in
      let r =
        Workload.drive t ~duration_ns:10e6 (fun _core ctx prng () ->
            if Prng.int prng 10 = 0 then ignore (Bank.tx_balance ctx bank)
            else begin
              let src = Prng.int prng 32 and dst = Prng.int prng 32 in
              if src <> dst then
                Bank.tx_transfer ctx bank ~src ~dst ~amount:(1 + Prng.int prng 5)
            end)
      in
      check_int (Cm.name policy ^ " conserves total") 3200 (Bank.total bank);
      ignore r)
    Cm.all

(* A balance transaction must observe a conserved snapshot even while
   transfers race: opacity of visible reads. *)
let test_bank_consistent_snapshots () =
  let c = cfg ~total:10 ~service:4 () in
  let t = Runtime.create c in
  let bank = Bank.create t ~accounts:24 ~initial:50 in
  let expected = 24 * 50 in
  let bad = ref 0 and reads = ref 0 in
  let r =
    Workload.drive t ~duration_ns:15e6 (fun core ctx prng ->
        if core = (Runtime.app_cores t).(0) then (fun () ->
          let sum = Bank.tx_balance ctx bank in
          incr reads;
          if sum <> expected then incr bad)
        else fun () ->
          let src = Prng.int prng 24 and dst = Prng.int prng 24 in
          if src <> dst then Bank.tx_transfer ctx bank ~src ~dst ~amount:1)
  in
  ignore r;
  check "balance reader ran" true (!reads > 0);
  check_int "every snapshot conserved" 0 !bad

(* Multi-core hash table: per-core accounting of successful operations
   must match the final structure exactly. *)
let test_hashtable_accounting () =
  let c = cfg ~total:10 ~service:4 () in
  let t = Runtime.create c in
  let ht = Hashtable.create t ~n_buckets:16 in
  Hashtable.populate ht (Runtime.fork_prng t) ~n:32 ~key_range:128;
  let initial = Hashtable.size ht in
  let adds = ref 0 and removes = ref 0 in
  Runtime.start_services t;
  Array.iter
    (fun core ->
      let ctx = Runtime.app_ctx t core in
      let prng = Runtime.fork_prng t in
      Runtime.spawn_app t core (fun () ->
          for _ = 1 to 60 do
            let k = Prng.int prng 128 in
            if Prng.bool prng then begin
              if Hashtable.tx_add ctx ht k then incr adds
            end
            else if Hashtable.tx_remove ctx ht k then incr removes
          done))
    (Runtime.app_cores t);
  let _ = Runtime.run t ~until:1e12 () in
  Hashtable.check_invariants ht;
  check_int "size accounting" (initial + !adds - !removes) (Hashtable.size ht)

(* Same accounting for the linked list under each elastic mode. *)
let test_list_accounting () =
  List.iter
    (fun mode ->
      let c = cfg ~total:8 ~service:4 () in
      let t = Runtime.create c in
      let l = Linkedlist.create t in
      Linkedlist.populate l (Runtime.fork_prng t) ~n:24 ~key_range:96;
      let initial = Linkedlist.size l in
      let adds = ref 0 and removes = ref 0 in
      Runtime.start_services t;
      Array.iter
        (fun core ->
          let ctx = Runtime.app_ctx t core in
          let prng = Runtime.fork_prng t in
          Runtime.spawn_app t core (fun () ->
              for _ = 1 to 40 do
                let k = Prng.int prng 96 in
                match Prng.int prng 3 with
                | 0 -> if Linkedlist.tx_add ~mode ctx l k then incr adds
                | 1 -> if Linkedlist.tx_remove ~mode ctx l k then incr removes
                | _ -> ignore (Linkedlist.tx_contains ~mode ctx l k)
              done))
        (Runtime.app_cores t);
      let _ = Runtime.run t ~until:1e12 () in
      Linkedlist.check_invariants l;
      let label =
        match mode with
        | `Normal -> "normal"
        | `Elastic_early -> "elastic-early"
        | `Elastic_read -> "elastic-read"
      in
      check_int (label ^ ": size accounting") (initial + !adds - !removes)
        (Linkedlist.size l))
    [ `Normal; `Elastic_early; `Elastic_read ]

(* Single-core transactional execution must agree with a reference
   model (sequential consistency of the runtime itself). *)
let test_single_core_vs_model () =
  let c = cfg ~total:4 ~service:2 () in
  let t = Runtime.create c in
  let ht = Hashtable.create t ~n_buckets:8 in
  let reference = Hashtbl.create 64 in
  Runtime.start_services t;
  let core = (Runtime.app_cores t).(0) in
  let ctx = Runtime.app_ctx t core in
  let prng = Prng.create ~seed:99 in
  let mismatches = ref 0 in
  Runtime.spawn_app t core (fun () ->
      for _ = 1 to 300 do
        let k = Prng.int prng 64 in
        match Prng.int prng 3 with
        | 0 ->
            let got = Hashtable.tx_add ctx ht k in
            let expect = not (Hashtbl.mem reference k) in
            if expect then Hashtbl.replace reference k ();
            if got <> expect then incr mismatches
        | 1 ->
            let got = Hashtable.tx_remove ctx ht k in
            let expect = Hashtbl.mem reference k in
            Hashtbl.remove reference k;
            if got <> expect then incr mismatches
        | _ ->
            if Hashtable.tx_contains ctx ht k <> Hashtbl.mem reference k then
              incr mismatches
      done);
  let _ = Runtime.run t ~until:1e12 () in
  check_int "matches reference model" 0 !mismatches;
  check_int "final size matches" (Hashtbl.length reference) (Hashtable.size ht)

(* Aborts actually happen and are recorded under contention. *)
let test_abort_stats_recorded () =
  let c = cfg ~total:8 ~service:2 () in
  let t, _ = run_counter c ~per_core:60 in
  let stats = Runtime.stats t in
  check "conflicting workload records aborts" true (Stats.total_aborts stats > 0);
  check "commit rate below 100" true (Stats.commit_rate stats < 100.0)

(* Read-your-writes and read caching inside one transaction. *)
let test_read_your_writes () =
  let c = cfg ~total:4 ~service:2 () in
  let t = Runtime.create c in
  let a = Tm2c_memory.Alloc.alloc (Runtime.alloc t) ~words:2 in
  Tm2c_memory.Shmem.poke (Runtime.shmem t) a 5;
  Runtime.start_services t;
  let core = (Runtime.app_cores t).(0) in
  let ctx = Runtime.app_ctx t core in
  Runtime.spawn_app t core (fun () ->
      Tx.atomic ctx (fun () ->
          check_int "initial read" 5 (Tx.read ctx a);
          Tx.write ctx a 6;
          check_int "read-your-write" 6 (Tx.read ctx a);
          check_int "cached re-read" 6 (Tx.read ctx a)));
  let _ = Runtime.run t ~until:1e12 () in
  check_int "persisted" 6 (Tm2c_memory.Shmem.peek (Runtime.shmem t) a)

let test_tx_outside_atomic_rejected () =
  let c = cfg ~total:4 ~service:2 () in
  let t = Runtime.create c in
  let ctx = Runtime.app_ctx t (Runtime.app_cores t).(0) in
  Alcotest.check_raises "read outside atomic"
    (Invalid_argument "Tx.read: outside atomic") (fun () -> ignore (Tx.read ctx 1));
  Alcotest.check_raises "write outside atomic"
    (Invalid_argument "Tx.write: outside atomic") (fun () -> Tx.write ctx 1 0)

(* Deterministic replay: identical seeds give identical executions. *)
let test_determinism () =
  let run seed =
    let c = cfg ~seed ~total:8 ~service:4 () in
    let t = Runtime.create c in
    let bank = Bank.create t ~accounts:16 ~initial:10 in
    let r =
      Workload.drive t ~duration_ns:5e6 (fun _core ctx prng () ->
          let src = Prng.int prng 16 and dst = Prng.int prng 16 in
          if src <> dst then Bank.tx_transfer ctx bank ~src ~dst ~amount:1)
    in
    (r.Workload.ops, r.Workload.commits, r.Workload.aborts, r.Workload.messages, r.Workload.events)
  in
  check "same seed, same run" true (run 7 = run 7);
  check "different seed, different run" true (run 7 <> run 8)

(* MapReduce produces the exact histogram on every deployment. *)
let test_mapreduce_correct () =
  let c = cfg ~total:8 ~service:1 () in
  let t = Runtime.create c in
  let mr = Mapreduce.create t ~seed:3 ~input_bytes:(96 * 1024) ~chunk_bytes:8192 in
  let r = Workload.run_to_completion t (fun _core ctx _prng -> Mapreduce.worker ctx mr) in
  check "histogram exact" true (Mapreduce.histogram mr = Mapreduce.expected_histogram mr);
  check "all workers finished" true (r.Workload.ops = Array.length (Runtime.app_cores t))

(* The privatization barrier (Section 8): all application cores meet,
   after which pre-barrier transactional data is safely private. *)
let test_barrier () =
  let c = cfg ~total:8 ~service:4 () in
  let t = Runtime.create c in
  let word = Tm2c_memory.Alloc.alloc (Runtime.alloc t) ~words:1 in
  Runtime.start_services t;
  let before = ref [] and after = ref [] in
  Array.iter
    (fun core ->
      let ctx = Runtime.app_ctx t core in
      Runtime.spawn_app t core (fun () ->
          Tx.atomic ctx (fun () -> Tx.write ctx word (Tx.read ctx word + 1));
          before := Sim.now (Runtime.sim t) :: !before;
          Runtime.barrier t ~core;
          after := Sim.now (Runtime.sim t) :: !after;
          (* Post-barrier: non-transactional access is safe. *)
          if core = (Runtime.app_cores t).(0) then begin
            let v = Tm2c_memory.Shmem.read (Runtime.shmem t) ~core word in
            check_int "all pre-barrier transactions visible"
              (Array.length (Runtime.app_cores t)) v
          end))
    (Runtime.app_cores t);
  let _ = Runtime.run t ~until:1e12 () in
  check_int "all cores passed" (Array.length (Runtime.app_cores t)) (List.length !after);
  (* Nobody exits the barrier before the last one enters it. *)
  let last_enter = List.fold_left Float.max 0.0 !before in
  List.iter (fun x -> check "exit after last entry" true (x >= last_enter)) !after

(* Commits without write-lock batching stay correct (the ablation
   configuration), just costlier. *)
let test_unbatched_commits () =
  let c = { (cfg ~total:8 ~service:4 ()) with Runtime.batching = false } in
  let t = Runtime.create c in
  let arr = Tm2c_memory.Alloc.alloc (Runtime.alloc t) ~words:8 in
  Runtime.start_services t;
  Array.iter
    (fun core ->
      let ctx = Runtime.app_ctx t core in
      Runtime.spawn_app t core (fun () ->
          for _ = 1 to 25 do
            Tx.atomic ctx (fun () ->
                for i = arr to arr + 7 do
                  Tx.write ctx i (Tx.read ctx i + 1)
                done)
          done))
    (Runtime.app_cores t);
  let _ = Runtime.run t ~until:1e12 () in
  let expect = 25 * Array.length (Runtime.app_cores t) in
  for i = arr to arr + 7 do
    check_int "every word exact" expect (Tm2c_memory.Shmem.peek (Runtime.shmem t) i)
  done

(* Irrevocable transactions (the Section 2 extension): mixed with
   normal transactions they stay exact, never abort, and two
   irrevocable transactions do not deadlock. *)
let test_irrevocable () =
  let c = cfg ~total:8 ~service:4 () in
  let t = Runtime.create c in
  let counter = Tm2c_memory.Alloc.alloc (Runtime.alloc t) ~words:1 in
  let irr_runs = ref 0 in
  Runtime.start_services t;
  Array.iteri
    (fun idx core ->
      let ctx = Runtime.app_ctx t core in
      Runtime.spawn_app t core (fun () ->
          for _ = 1 to 30 do
            if idx < 2 then
              (* Two cores run irrevocable increments, racing both the
                 normal transactions and each other. *)
              Tx.irrevocable ctx (fun () ->
                  incr irr_runs;
                  Tx.write ctx counter (Tx.read ctx counter + 1))
            else
              Tx.atomic ctx (fun () ->
                  Tx.write ctx counter (Tx.read ctx counter + 1))
          done))
    (Runtime.app_cores t);
  let _ = Runtime.run t ~until:1e12 () in
  let expect = 30 * Array.length (Runtime.app_cores t) in
  check_int "no lost updates with irrevocable mix" expect
    (Tm2c_memory.Shmem.peek (Runtime.shmem t) counter);
  (* Irrevocable bodies ran exactly once each: never re-executed. *)
  check_int "irrevocable bodies ran exactly once" (2 * 30) !irr_runs;
  (* Irrevocable cores recorded no aborts. *)
  let stats = Runtime.stats t in
  Array.iteri
    (fun idx core ->
      if idx < 2 then
        check_int "irrevocable core aborts" 0 (Stats.aborts (Stats.core stats core)))
    (Runtime.app_cores t)

(* Nesting is rejected for both transaction kinds. *)
let test_nesting_rejected () =
  let c = cfg ~total:4 ~service:2 () in
  let t = Runtime.create c in
  Runtime.start_services t;
  let core = (Runtime.app_cores t).(0) in
  let ctx = Runtime.app_ctx t core in
  let raised = ref 0 in
  Runtime.spawn_app t core (fun () ->
      Tx.atomic ctx (fun () ->
          (match Tx.atomic ctx (fun () -> ()) with
          | () -> ()
          | exception Invalid_argument _ -> incr raised);
          (match Tx.irrevocable ctx (fun () -> ()) with
          | () -> ()
          | exception Invalid_argument _ -> incr raised)));
  let _ = Runtime.run t ~until:1e9 () in
  check_int "both nestings rejected" 2 !raised

(* Elastic transactions lock normally once the prefix ends: a read
   after the first write acquires a real read lock. *)
let test_elastic_post_prefix_locks () =
  let c = cfg ~total:4 ~service:2 () in
  let t = Runtime.create c in
  let a = Tm2c_memory.Alloc.alloc (Runtime.alloc t) ~words:4 in
  Runtime.start_services t;
  let core = (Runtime.app_cores t).(0) in
  let ctx = Runtime.app_ctx t core in
  Runtime.spawn_app t core (fun () ->
      Tx.atomic ~elastic:Tx.Elastic_read ctx (fun () ->
          ignore (Tx.read ctx a);
          (* Prefix over: *)
          Tx.write ctx (a + 1) 5;
          ignore (Tx.read ctx (a + 2))));
  let _ = Runtime.run t ~until:1e9 () in
  let stats = Stats.core (Runtime.stats t) core in
  (* The post-prefix read took a lock; the prefix read did not. The
     write-lock batch makes at least two lock requests total; what we
     can observe cheaply: the transaction committed and the write
     persisted. *)
  check_int "committed" 1 stats.Stats.commits;
  check_int "write persisted" 5 (Tm2c_memory.Shmem.peek (Runtime.shmem t) (a + 1))

(* Elastic-early uses more messages than normal (extra releases),
   elastic-read far fewer (no lock requests in the prefix). *)
let test_elastic_message_accounting () =
  let run mode =
    let c = cfg ~total:4 ~service:2 () in
    let t = Runtime.create c in
    let l = Linkedlist.create t in
    Linkedlist.populate l (Tm2c_engine.Prng.create ~seed:1) ~n:64 ~key_range:128;
    Runtime.start_services t;
    let core = (Runtime.app_cores t).(0) in
    let ctx = Runtime.app_ctx t core in
    Runtime.spawn_app t core (fun () ->
        for k = 0 to 40 do
          ignore (Linkedlist.tx_contains ~mode ctx l (3 * k))
        done);
    let _ = Runtime.run t ~until:1e12 () in
    Tm2c_noc.Network.sent (Runtime.env t).System.net
  in
  let normal = run `Normal in
  let early = run `Elastic_early in
  let eread = run `Elastic_read in
  check "elastic-early sends more messages (releases)" true (early > normal);
  check "elastic-read sends far fewer" true (eread * 5 < normal)

let suite =
  [
    ("counter: exact under contention", `Quick, test_counter_exact);
    ("counter: eager write acquisition", `Quick, test_counter_eager);
    ("counter: multitask deployment", `Quick, test_counter_multitask);
    ("counter: all platforms", `Quick, test_counter_platforms);
    ("starvation-freedom: Wholly/FairCM complete", `Quick, test_counter_starvation_free_cms);
    ("bank: conservation under every CM", `Quick, test_bank_conservation);
    ("bank: consistent balance snapshots", `Quick, test_bank_consistent_snapshots);
    ("hash table: concurrent accounting", `Quick, test_hashtable_accounting);
    ("linked list: accounting per elastic mode", `Quick, test_list_accounting);
    ("single core vs reference model", `Quick, test_single_core_vs_model);
    ("aborts recorded under contention", `Quick, test_abort_stats_recorded);
    ("read-your-writes", `Quick, test_read_your_writes);
    ("tx ops outside atomic rejected", `Quick, test_tx_outside_atomic_rejected);
    ("deterministic replay", `Quick, test_determinism);
    ("mapreduce: exact histogram", `Quick, test_mapreduce_correct);
    ("privatization barrier", `Quick, test_barrier);
    ("unbatched commits stay atomic", `Quick, test_unbatched_commits);
    ("irrevocable transactions", `Quick, test_irrevocable);
    ("nesting rejected", `Quick, test_nesting_rejected);
    ("elastic: post-prefix reads lock", `Quick, test_elastic_post_prefix_locks);
    ("elastic: message accounting", `Quick, test_elastic_message_accounting);
  ]
