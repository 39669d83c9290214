(* Section 5.3 — the bank application: Figs. 5(a)-5(d). *)

open Tm2c_core
open Tm2c_apps

let run_bank (ex : Exp.t) ?platform ?(policy = Cm.Fair_cm) ?service ~accounts
    ~balance ~total () =
  let cfg = Exp.config ?platform ~policy ?service ~total () in
  snd
    (Exp.run ex cfg (fun t ->
         let bank = Bank.create t ~accounts ~initial:1000 in
         fun () ->
           Workload.drive t ~duration_ns:ex.scale.long_window_ns (Exp.bank_mix bank ~balance)))

(* Fig. 5(a): with vs without contention management; 20% balance, 80%
   transfers. Without a CM the balance operations livelock. *)
let fig5a (ex : Exp.t) =
  let policies = [ Cm.Wholly; Cm.Offset_greedy; Cm.Fair_cm; Cm.Backoff_retry; Cm.No_cm ] in
  let results =
    List.map
      (fun n ->
        ( n,
          List.map
            (fun policy ->
              run_bank ex ~policy ~accounts:ex.scale.bank_accounts ~balance:20
                ~total:n ())
            policies ))
      Exp.core_series
  in
  let header = "cores" :: List.map Cm.name policies in
  Exp.print_table
    ~title:"Fig 5(a) left - bank, 20% balance / 80% transfer: throughput (Ops/ms)"
    ~header
    (List.map
       (fun (n, rs) ->
         (Exp.row_label_int n, List.map (fun r -> r.Workload.throughput_ops_ms) rs))
       results);
  Exp.print_table ~title:"Fig 5(a) right - commit rate (%)" ~header
    (List.map
       (fun (n, rs) -> (Exp.row_label_int n, List.map (fun r -> r.Workload.commit_rate) rs))
       results)

(* Fig. 5(b): throughput under different numbers of service cores on
   the full 48-core chip. *)
let fig5b (ex : Exp.t) =
  let service_series = [ 1; 2; 4; 8; 16; 24 ] in
  let cell ~balance s =
    (run_bank ex ~service:s ~accounts:ex.scale.bank_accounts ~balance ~total:48 ())
      .Workload.throughput_ops_ms
  in
  Exp.print_table
    ~title:"Fig 5(b) - bank on 48 cores vs number of DTM service cores (Ops/ms)"
    ~header:[ "service"; "20%balance"; "100%transfer" ]
    (List.map
       (fun s -> (Exp.row_label_int s, [ cell ~balance:20 s; cell ~balance:0 s ]))
       service_series)

(* Fig. 5(c): one core repeatedly computes balances while all others
   transfer; FairCM should dominate by deprioritizing the long
   balance transactions. *)
let fig5c (ex : Exp.t) =
  let policies = [ Cm.Wholly; Cm.Offset_greedy; Cm.Fair_cm; Cm.Backoff_retry ] in
  let run policy total =
    snd
      (Exp.run ex (Exp.config ~policy ~total ()) (fun t ->
           let bank = Bank.create t ~accounts:ex.scale.bank_accounts ~initial:1000 in
           let reader = (Runtime.app_cores t).(0) in
           fun () ->
             Workload.drive t ~duration_ns:ex.scale.long_window_ns (fun core ctx prng ->
                 if core = reader then fun () -> ignore (Bank.tx_balance ctx bank)
                 else Exp.bank_mix bank ~balance:0 core ctx prng)))
  in
  let results =
    List.map
      (fun n -> (n, List.map (fun p -> run p n) policies))
      [ 4; 8; 16; 32; 48 ]
  in
  let header = "cores" :: List.map Cm.name policies in
  Exp.print_table
    ~title:"Fig 5(c) left - bank, one balance core, others transfer: throughput (Ops/ms)"
    ~header
    (List.map
       (fun (n, rs) ->
         (Exp.row_label_int n, List.map (fun r -> r.Workload.throughput_ops_ms) rs))
       results);
  Exp.print_table ~title:"Fig 5(c) right - commit rate (%)" ~header
    (List.map
       (fun (n, rs) -> (Exp.row_label_int n, List.map (fun r -> r.Workload.commit_rate) rs))
       results)

(* Fig. 5(d): transactions vs a single global test-and-set lock (the
   SCC has one TAS register per core, so no fine-grained locking). *)
let fig5d (ex : Exp.t) =
  let accounts = ex.scale.bank_accounts_5d in
  (* One cell: [op env bank ~reader] is the cell's operation
     generator. *)
  let cell cfg op =
    let _, r =
      Exp.run ex cfg (fun t ->
          let bank = Bank.create t ~accounts ~initial:1000 in
          let op = op (Runtime.env t) bank ~reader:(Runtime.app_cores t).(0) in
          fun () -> Workload.drive t ~duration_ns:ex.scale.long_window_ns op)
    in
    r.Workload.throughput_ops_ms
  in
  let tx_cell ~one_reader total =
    cell (Exp.config ~total ()) (fun _env bank ~reader core ctx prng ->
        if one_reader && core = reader then fun () -> ignore (Bank.tx_balance ctx bank)
        else Exp.bank_mix bank ~balance:0 core ctx prng)
  in
  (* The lock-based version needs no DTM cores: every core runs the
     application. *)
  let lock_cell ~one_reader total =
    cell (Exp.config ~deployment:Runtime.Multitask ~service:total ~total ())
      (fun env bank ~reader core _ctx prng ->
        if one_reader && core = reader then fun () ->
          ignore (Bank.lock_balance env ~core ~prng bank)
        else fun () ->
          let src = Tm2c_engine.Prng.int prng accounts
          and dst = Tm2c_engine.Prng.int prng accounts in
          if src <> dst then Bank.lock_transfer env ~core ~prng bank ~src ~dst ~amount:1)
  in
  Exp.print_table
    ~title:
      (Printf.sprintf
         "Fig 5(d) - bank (%d accounts): locks vs transactions (Ops/ms)" accounts)
    ~header:[ "cores"; "lock,transf"; "tx,transf"; "lock,1rdr"; "tx,1rdr" ]
    (List.map
       (fun n ->
         ( Exp.row_label_int n,
           [
             lock_cell ~one_reader:false n;
             tx_cell ~one_reader:false n;
             lock_cell ~one_reader:true n;
             tx_cell ~one_reader:true n;
           ] ))
       [ 4; 8; 16; 24; 28; 32; 40; 48 ])
