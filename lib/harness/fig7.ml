(* Section 6.2 — elastic transactions on the sorted linked list:
   Figs. 7(a) and 7(b). 20% updates / 80% contains. *)

open Tm2c_core
open Tm2c_apps

let run_list (ex : Exp.t) ~mode ~total =
  let n = ex.scale.list_elems in
  let _, r =
    Exp.run ex (Exp.config ~total ()) (fun t ->
        let l = Linkedlist.create t in
        Linkedlist.populate l (Runtime.fork_prng t) ~n ~key_range:(2 * n);
        fun () ->
          Workload.drive t ~duration_ns:ex.scale.window_ns
            (Exp.list_mix l ~mode ~updates:20 ~range:(2 * n)))
  in
  (r.Workload.throughput_ops_ms, r.Workload.commit_rate)

let collect ex =
  List.map
    (fun n ->
      let normal, cr_n = run_list ex ~mode:`Normal ~total:n in
      let early, cr_e = run_list ex ~mode:`Elastic_early ~total:n in
      let eread, cr_r = run_list ex ~mode:`Elastic_read ~total:n in
      (n, (normal, cr_n), (early, cr_e), (eread, cr_r)))
    Exp.core_series

(* Fig. 7(a): elastic-early speedup over normal transactions (modest:
   each early release costs an extra message). *)
let fig7a ex =
  let data = collect ex in
  Exp.print_table
    ~title:
      "Fig 7(a) - linked list: elastic-early speedup over normal (and abort rates)"
    ~header:[ "cores"; "early/norm"; "norm-cr%"; "early-cr%" ]
    (List.map
       (fun (n, (normal, cr_n), (early, cr_e), _) ->
         ( Exp.row_label_int n,
           [ Exp.ratio early normal; cr_n; cr_e ] ))
       data)

(* Fig. 7(b): elastic-read speedup over normal (read validation trades
   messages for memory accesses: large wins on the SCC). *)
let fig7b ex =
  let data = collect ex in
  Exp.print_table
    ~title:"Fig 7(b) - linked list: speedup over normal transactions"
    ~header:[ "cores"; "normal"; "elastic-early"; "elastic-read" ]
    (List.map
       (fun (n, (normal, _), (early, _), (eread, _)) ->
         ( Exp.row_label_int n,
           [
             1.0;
             Exp.ratio early normal;
             Exp.ratio eread normal;
           ] ))
       data)
