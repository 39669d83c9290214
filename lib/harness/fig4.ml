(* Section 5.2 — the hash table benchmark: Figs. 4(a), 4(b), 4(c). *)

open Tm2c_core
open Tm2c_apps

(* Per-operation local work of the benchmark harness (operation
   generation, key derivation, value handling) on the 533 MHz P54C,
   calibrated against Fig. 4(b)'s sequential baseline. It runs outside
   the transaction, and under the multitasking deployment it is the
   local computation that delays remote service requests (Fig. 2). *)
let payload_cycles = 30_000

(* Initial load factor [lf] with a key range that keeps the expected
   size stable under a symmetric add/remove mix. *)
let setup_ht ~buckets ~lf t =
  let ht = Hashtable.create t ~n_buckets:buckets in
  let n = lf * buckets in
  Hashtable.populate ht (Runtime.fork_prng t) ~n ~key_range:(2 * n);
  (ht, 2 * n)

let throughput (ex : Exp.t) ~deployment ~wmode ~buckets ~lf ~updates ~moves ~total =
  let service = match deployment with
    | Runtime.Multitask -> total
    | Runtime.Dedicated -> max 1 (total / 2)
  in
  let cfg = Exp.config ~deployment ~wmode ~service ~total () in
  snd
    (Exp.run ex cfg (fun t ->
         let ht, range = setup_ht ~buckets ~lf t in
         fun () ->
           Workload.drive t ~duration_ns:ex.scale.window_ns
             (Exp.ht_mix ht ~updates ~moves ~payload:payload_cycles ~range)))

(* Fig. 4(a): multitasked vs dedicated deployment, load factors 2 and
   8, 20% updates. *)
let fig4a (ex : Exp.t) =
  let cell deployment lf total =
    (throughput ex ~deployment ~wmode:Tx.Lazy ~buckets:ex.scale.ht_buckets ~lf
       ~updates:20 ~moves:0 ~total)
      .Workload.throughput_ops_ms
  in
  let rows =
    List.map
      (fun n ->
        ( Exp.row_label_int n,
          [
            cell Runtime.Multitask 2 n;
            cell Runtime.Multitask 8 n;
            cell Runtime.Dedicated 2 n;
            cell Runtime.Dedicated 8 n;
          ] ))
      Exp.core_series
  in
  Exp.print_table
    ~title:"Fig 4(a) - hash table: multitasked vs dedicated deployment (Ops/ms, 20% updates)"
    ~header:[ "cores"; "multi,lf2"; "multi,lf8"; "ded,lf2"; "ded,lf8" ]
    rows

(* Fig. 4(b): speedup of TM2C on 24+24 cores over bare sequential on
   one core, as a function of the load factor, for various update
   ratios. *)
let fig4b (ex : Exp.t) =
  let buckets = ex.scale.ht_buckets in
  let speedup ~lf ~updates =
    let tx =
      (throughput ex ~deployment:Runtime.Dedicated ~wmode:Tx.Lazy ~buckets ~lf
         ~updates ~moves:0 ~total:48)
        .Workload.throughput_ops_ms
    in
    let seq =
      Exp.seq_throughput ex (fun t ->
          let ht, range = setup_ht ~buckets ~lf t in
          fun ~core prng ->
            let env = Runtime.env t in
            fun () ->
              Tm2c_noc.Network.compute env.System.net payload_cycles;
              let k = Tm2c_engine.Prng.int prng range in
              let p = Tm2c_engine.Prng.int prng 100 in
              if p < updates then
                if p land 1 = 0 then ignore (Hashtable.seq_add env ~core ht k)
                else ignore (Hashtable.seq_remove env ~core ht k)
              else ignore (Hashtable.seq_contains env ~core ht k))
    in
    Exp.ratio tx seq
  in
  let rows =
    List.map
      (fun lf ->
        ( Exp.row_label_int lf,
          List.map (fun updates -> speedup ~lf ~updates) [ 20; 30; 40; 50 ] ))
      [ 2; 4; 6; 8 ]
  in
  Exp.print_table
    ~title:"Fig 4(b) - hash table: speedup over sequential (48 cores: 24 app + 24 DTM)"
    ~header:[ "load"; "20%upd"; "30%upd"; "40%upd"; "50%upd" ]
    rows

(* Fig. 4(c): eager vs lazy write-lock acquisition; 30% updates of
   which 20 points are move operations (write in mid-transaction). *)
let fig4c (ex : Exp.t) =
  (* "64" / "128" are the (small, contended) table sizes; load factor
     4, so 16 / 32 buckets. *)
  let run wmode size total =
    throughput ex ~deployment:Runtime.Dedicated ~wmode ~buckets:(size / 4) ~lf:4
      ~updates:30 ~moves:20 ~total
  in
  let results =
    List.map
      (fun n ->
        (n, run Tx.Eager 64 n, run Tx.Lazy 64 n, run Tx.Eager 128 n, run Tx.Lazy 128 n))
      Exp.core_series
  in
  Exp.print_table
    ~title:"Fig 4(c) left - eager vs lazy write-lock acquisition (Ops/ms)"
    ~header:[ "cores"; "eager,64"; "lazy,64"; "eager,128"; "lazy,128" ]
    (List.map
       (fun (n, e64, l64, e128, l128) ->
         ( Exp.row_label_int n,
           [
             e64.Workload.throughput_ops_ms;
             l64.Workload.throughput_ops_ms;
             e128.Workload.throughput_ops_ms;
             l128.Workload.throughput_ops_ms;
           ] ))
       results);
  Exp.print_table
    ~title:"Fig 4(c) right - commit rate (%)"
    ~header:[ "cores"; "eager,64"; "lazy,64"; "eager,128"; "lazy,128" ]
    (List.map
       (fun (n, e64, l64, e128, l128) ->
         ( Exp.row_label_int n,
           [
             e64.Workload.commit_rate;
             l64.Workload.commit_rate;
             e128.Workload.commit_rate;
             l128.Workload.commit_rate;
           ] ))
       results)
