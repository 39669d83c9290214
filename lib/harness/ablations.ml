(* Ablations of TM2C design choices called out in Section 3.3 and
   Section 4.3 (not figures in the paper, but the experiments behind
   its design arguments):

   - write-lock batching: "requesting the locks for multiple memory
     objects in a single message ... can significantly reduce the
     number of messages";
   - Offset-Greedy's sensitivity to clock skew: the offset estimation
     "does not take into account the message delay", so larger skew
     should increase aborts (rule (b) violations);
   - visible reads: what the hash table costs when every read is a
     round trip (normal) vs validated memory accesses (elastic-read),
     the Section 3.3 design trade-off. *)

open Tm2c_core
open Tm2c_apps

(* Batching matters for transactions with several writes per commit:
   use the bank's transfer (2 writes) plus a wider "payroll" update
   that writes 8 accounts. *)
let batching (ex : Exp.t) =
  let run ~batching total =
    let _, r =
      Exp.run ex { (Exp.config ~total ()) with Runtime.batching } (fun t ->
          let table = Tm2c_memory.Alloc.alloc (Runtime.alloc t) ~words:256 in
          fun () ->
            Workload.drive t ~duration_ns:ex.scale.window_ns (fun _core ctx prng () ->
                let base = table + Tm2c_engine.Prng.int prng 248 in
                Tx.atomic ctx (fun () ->
                    (* Read-modify-write 8 consecutive words: an 8-write commit. *)
                    for i = base to base + 7 do
                      Tx.write ctx i (Tx.read ctx i + 1)
                    done)))
    in
    ( r.Workload.throughput_ops_ms,
      float_of_int r.Workload.messages /. float_of_int (max 1 r.Workload.ops) )
  in
  Exp.print_table
    ~title:
      "Ablation: write-lock batching (8-write commits; Ops/ms and messages per op)"
    ~header:[ "cores"; "batched"; "unbatched"; "msg/op(b)"; "msg/op(u)" ]
    (List.map
       (fun n ->
         let tb, mb = run ~batching:true n in
         let tu, mu = run ~batching:false n in
         (Exp.row_label_int n, [ tb; tu; mb; mu ]))
       [ 8; 16; 32; 48 ])

(* The Section 5.1 performance settings, exercised end-to-end: how
   tile (core), mesh and DRAM frequencies move real transactional
   throughput. (Note on clock skew: although each core has a private
   clock, Offset-Greedy's offsets are measured and applied on the
   same clock, so constant skew cancels; its real estimation error is
   the variable in-flight message delay, which the latency model
   already produces. Hence no skew sweep here.) *)
let settings_sweep (ex : Exp.t) =
  let run setting balance =
    let platform = Tm2c_noc.Platform.scc_setting setting in
    let _, r =
      Exp.run ex (Exp.config ~platform ~total:32 ()) (fun t ->
          let bank = Bank.create t ~accounts:128 ~initial:1000 in
          fun () -> Workload.drive t ~duration_ns:ex.scale.window_ns (Exp.bank_mix bank ~balance))
    in
    r.Workload.throughput_ops_ms
  in
  Exp.print_table
    ~title:"Ablation: SCC performance settings 0-4 (bank on 32 cores, Ops/ms)"
    ~header:[ "setting"; "100%transfer"; "20%balance" ]
    (List.map
       (fun i -> (Exp.row_label_int i, [ run i 0; run i 20 ]))
       [ 0; 1; 2; 3; 4 ])

(* Multitasking service-scheduling delay: how much of the dedicated
   deployment's advantage (Fig. 4a) comes from the non-preemptive
   coroutine scheduling. *)
let defer (ex : Exp.t) =
  let run deployment total =
    let service =
      match deployment with Runtime.Multitask -> total | Runtime.Dedicated -> max 1 (total / 2)
    in
    let _, r =
      Exp.run ex (Exp.config ~deployment ~service ~total ()) (fun t ->
          let ht = Hashtable.create t ~n_buckets:64 in
          Hashtable.populate ht (Runtime.fork_prng t) ~n:128 ~key_range:256;
          fun () ->
            Workload.drive t ~duration_ns:ex.scale.window_ns
              (Exp.ht_mix ht ~updates:20 ~payload:30_000 ~range:256))
    in
    r.Workload.throughput_ops_ms
  in
  Exp.print_table
    ~title:"Ablation: deployment strategies (hash table, 20% updates)"
    ~header:[ "cores"; "dedicated"; "multitask" ]
    (List.map
       (fun n ->
         ( Exp.row_label_int n,
           [ run Runtime.Dedicated n; run Runtime.Multitask n ] ))
       [ 8; 16; 32; 48 ])

let run ex =
  batching ex;
  settings_sweep ex;
  defer ex
