(* Section 7 — TM2C on a cache-coherent multi-core vs the many-core:
   Figs. 8(a)-8(d). Platforms: SCC (setting 0), SCC800 (setting 1),
   Opteron (48-core cache-coherent multi-core with cache-line message
   channels). *)

open Tm2c_core
open Tm2c_apps
open Tm2c_engine
open Tm2c_noc

let platforms = [ Platform.scc; Platform.scc800; Platform.opteron ]

(* Fig. 8(a): round-trip latency of the messaging layer. Half the
   cores echo, half send one message at a time round-robin over the
   echo cores (the paper: service cores respond immediately, no local
   computation). *)
type ping_msg = Ping of { client : int; id : int } | Pong of { id : int }

let round_trip_us ~platform ~total ~per_client =
  let sim = Sim.create () in
  let net = Network.create sim platform ~active:total in
  let n_service = max 1 (total / 2) in
  let service = Array.init n_service (fun k -> k * total / n_service) in
  let is_service = Array.make total false in
  Array.iter (fun c -> is_service.(c) <- true) service;
  let clients = List.filter (fun c -> not is_service.(c)) (List.init total Fun.id) in
  Array.iter
    (fun self ->
      Sim.spawn sim (fun () ->
          let rec loop () =
            match Network.recv net ~self with
            | Ping { client; id } ->
                Network.send net ~src:self ~dst:client (Pong { id });
                loop ()
            | Pong _ -> invalid_arg "echo server got a pong"
          in
          loop ()))
    service;
  let total_latency = ref 0.0 and measured = ref 0 in
  List.iter
    (fun self ->
      Sim.spawn sim (fun () ->
          for id = 1 to per_client do
            let dst = service.(id mod n_service) in
            let t0 = Sim.now sim in
            Network.send net ~src:self ~dst (Ping { client = self; id });
            let rec wait () =
              match Network.recv net ~self with
              | Pong { id = rid } when rid = id -> ()
              | Pong _ -> wait ()
              | Ping _ -> invalid_arg "client got a ping"
            in
            wait ();
            total_latency := !total_latency +. (Sim.now sim -. t0);
            incr measured
          done))
    clients;
  let _ = Sim.run sim () in
  !total_latency /. float_of_int !measured /. 1e3

let fig8a (ex : Exp.t) =
  let per_client = if ex.scale.label = "full" then 2000 else 300 in
  Exp.print_table
    ~title:"Fig 8(a) - round-trip message latency (us)"
    ~header:("cores" :: List.map (fun p -> p.Platform.name) platforms)
    (List.map
       (fun n ->
         ( Exp.row_label_int n,
           List.map (fun platform -> round_trip_us ~platform ~total:n ~per_client) platforms ))
       Exp.core_series)

(* Fig. 8(b): the bank on the three platforms; 20% balance (left) and
   100% transfers (right). *)
let fig8b (ex : Exp.t) =
  let cell ~platform ~balance total =
    (Fig5.run_bank ex ~platform ~accounts:ex.scale.bank_accounts ~balance
       ~total ())
      .Workload.throughput_ops_ms
  in
  let names = List.map (fun p -> p.Platform.name) platforms in
  Exp.print_table
    ~title:"Fig 8(b) left - bank, 20% balance / 80% transfer (Ops/ms)"
    ~header:("cores" :: names)
    (List.map
       (fun n ->
         ( Exp.row_label_int n,
           List.map (fun platform -> cell ~platform ~balance:20 n) platforms ))
       Exp.core_series);
  Exp.print_table
    ~title:"Fig 8(b) right - bank, 100% transfers (Ops/ms)"
    ~header:("cores" :: names)
    (List.map
       (fun n ->
         ( Exp.row_label_int n,
           List.map (fun platform -> cell ~platform ~balance:0 n) platforms ))
       Exp.core_series)

(* Fig. 8(c): the linked list, 512 elements, 10% updates. *)
let fig8c (ex : Exp.t) =
  let cell ~platform total =
    let _, r =
      Exp.run ex (Exp.config ~platform ~total ()) (fun t ->
          let l = Linkedlist.create t in
          Linkedlist.populate l (Runtime.fork_prng t) ~n:512 ~key_range:1024;
          fun () ->
            Workload.drive t ~duration_ns:ex.scale.window_ns
              (Exp.list_mix l ~mode:`Normal ~updates:10 ~range:1024))
    in
    r.Workload.throughput_ops_ms
  in
  Exp.print_table
    ~title:"Fig 8(c) - linked list (512 elements, 10% updates) (Ops/ms)"
    ~header:("cores" :: List.map (fun p -> p.Platform.name) platforms)
    (List.map
       (fun n ->
         (Exp.row_label_int n, List.map (fun platform -> cell ~platform n) platforms))
       Exp.core_series)

(* Fig. 8(d): the hash table, 512 elements, 10% updates, load factors
   4 and 16. *)
let fig8d (ex : Exp.t) =
  let cell ~platform ~load total =
    let _, r =
      Exp.run ex (Exp.config ~platform ~total ()) (fun t ->
          let ht = Hashtable.create t ~n_buckets:(512 / load) in
          Hashtable.populate ht (Runtime.fork_prng t) ~n:512 ~key_range:1024;
          fun () ->
            Workload.drive t ~duration_ns:ex.scale.window_ns
              (Exp.ht_mix ht ~updates:10 ~range:1024))
    in
    r.Workload.throughput_ops_ms
  in
  let names = List.map (fun p -> p.Platform.name) platforms in
  List.iter
    (fun load ->
      Exp.print_table
        ~title:(Printf.sprintf "Fig 8(d) - hash table, load factor %d (Ops/ms)" load)
        ~header:("cores" :: names)
        (List.map
           (fun n ->
             ( Exp.row_label_int n,
               List.map (fun platform -> cell ~platform ~load n) platforms ))
           Exp.core_series))
    [ 4; 16 ]
