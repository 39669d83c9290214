(* One run description: every tm2c-sim flag that changes the simulated
   run — the workload, the machine, the fault plan and the hardening
   and replication knobs — as one record, with its command-line parser
   and printer. tm2c-sim parses it; the fault fuzzer builds its shapes
   from it and prints a failing run as the tm2c-sim command that
   repeats it. *)

open Cmdliner
open Tm2c_core
open Tm2c_apps

type bench = Bank | Hashtable | List_bench | Mapreduce | Counter

type t = {
  bench : bench;
  platform : Tm2c_noc.Platform.t;
  cm : Cm.policy;
  cores : int;
  service : int option;
  multitask : bool;
  eager : bool;
  fault_plan : Tm2c_noc.Fault.plan option;
  timeout_ns : float;
  lease_ns : float;
  replicas : int;
  duration_ms : float;
  seed : int;
  balance : int;
  accounts : int;
  buckets : int;
  updates : int;
  elastic : Linkedlist.mode;
  size : int;
  input_kb : int;
  chunk_kb : int;
}

let default =
  {
    bench = Bank;
    platform = Tm2c_noc.Platform.scc;
    cm = Cm.Fair_cm;
    cores = 48;
    service = None;
    multitask = false;
    eager = false;
    fault_plan = None;
    timeout_ns = 0.0;
    lease_ns = 0.0;
    replicas = 0;
    duration_ms = 50.0;
    seed = 42;
    balance = 20;
    accounts = 1024;
    buckets = 64;
    updates = 20;
    elastic = `Normal;
    size = 512;
    input_kb = 1024;
    chunk_kb = 8;
  }

(* ---- flag values: each parser and its printer side by side ---- *)

let bench_of_string = function
  | "bank" -> Ok Bank
  | "hashtable" | "ht" -> Ok Hashtable
  | "list" | "linkedlist" -> Ok List_bench
  | "mapreduce" | "mr" -> Ok Mapreduce
  | "counter" -> Ok Counter
  | s -> Error (Printf.sprintf "unknown benchmark %S" s)

let bench_to_string = function
  | Bank -> "bank"
  | Hashtable -> "hashtable"
  | List_bench -> "list"
  | Mapreduce -> "mapreduce"
  | Counter -> "counter"

(* The largest scaled mesh [--platform mesh:COLSxROWS] builds: the
   network keeps a cores x cores link table, 128 MB at this size. *)
let max_mesh_cores = 4096

(* [mesh:COLSxROWS], both decimal and at least 1: a scaled SCC mesh of
   COLS x ROWS two-core tiles ([Platform.scc_mesh]). *)
let mesh_of_string s =
  let dim d =
    if d <> "" && String.for_all (fun c -> c >= '0' && c <= '9') d then int_of_string_opt d
    else None
  in
  match String.split_on_char 'x' (String.sub s 5 (String.length s - 5)) with
  | [ c; r ] -> (
      match (dim c, dim r) with
      | Some cols, Some rows when cols < 1 || rows < 1 ->
          Error (Printf.sprintf "%s: a mesh needs COLS >= 1 and ROWS >= 1" s)
      | Some cols, Some rows
        when cols > max_mesh_cores || rows > max_mesh_cores || 2 * cols * rows > max_mesh_cores ->
          Error (Printf.sprintf "%s: a mesh has at most %d cores" s max_mesh_cores)
      | Some cols, Some rows -> Ok (Tm2c_noc.Platform.scc_mesh ~cols ~rows)
      | _ -> Error (Printf.sprintf "%s: expected mesh:COLSxROWS, e.g. mesh:16x16" s))
  | _ -> Error (Printf.sprintf "%s: expected mesh:COLSxROWS, e.g. mesh:16x16" s)

let platform_of_string = function
  | "scc" -> Ok Tm2c_noc.Platform.scc
  | "scc800" -> Ok Tm2c_noc.Platform.scc800
  | "opteron" | "multicore" -> Ok Tm2c_noc.Platform.opteron
  | s when String.starts_with ~prefix:"mesh:" s -> mesh_of_string s
  | s -> (
      match int_of_string_opt s with
      | Some i when i >= 0 && i <= 4 -> Ok (Tm2c_noc.Platform.scc_setting i)
      | Some _ | None -> Error (Printf.sprintf "unknown platform %S" s))

(* Settings 0 and 1 are named "SCC" and "SCC800"; 2-4 "SCC-s<i>"; a
   scaled mesh "SCC-mesh-<cols>x<rows>". *)
let platform_to_string (p : Tm2c_noc.Platform.t) =
  match p.Tm2c_noc.Platform.name with
  | "SCC" -> "scc"
  | "SCC800" -> "scc800"
  | "Opteron" -> "opteron"
  | name -> (
      match Scanf.sscanf_opt name "SCC-s%d%!" Fun.id with
      | Some i -> string_of_int i
      | None -> (
          match Scanf.sscanf_opt name "SCC-mesh-%dx%d%!" (Printf.sprintf "mesh:%dx%d") with
          | Some m -> m
          | None -> invalid_arg ("Shape: platform " ^ name ^ " has no flag value")))

let cm_of_string s =
  match Cm.of_string s with
  | Some p -> Ok p
  | None -> Error (Printf.sprintf "unknown contention manager %S" s)

let cm_to_string = function
  | Cm.No_cm -> "nocm"
  | Cm.Backoff_retry -> "backoff"
  | Cm.Offset_greedy -> "offset-greedy"
  | Cm.Wholly -> "wholly"
  | Cm.Fair_cm -> "faircm"

let elastic_of_string = function
  | "none" | "normal" -> Ok `Normal
  | "early" -> Ok `Elastic_early
  | "read" -> Ok `Elastic_read
  | s -> Error (Printf.sprintf "unknown elastic mode %S" s)

let elastic_to_string = function
  | `Normal -> "normal"
  | `Elastic_early -> "early"
  | `Elastic_read -> "read"

let flag_conv of_string to_string =
  Arg.conv
    ( (fun s -> Result.map_error (fun m -> `Msg m) (of_string s)),
      fun fmt v -> Format.pp_print_string fmt (to_string v) )

(* The shortest decimal that reads back as the same float. *)
let float_to_string f =
  let s = Printf.sprintf "%.15g" f in
  if float_of_string s = f then s else Printf.sprintf "%.17g" f

(* ---- the command line ---- *)

let config s =
  let deployment = if s.multitask then Runtime.Multitask else Runtime.Dedicated in
  Exp.config ~platform:s.platform ~policy:s.cm
    ~wmode:(if s.eager then Tx.Eager else Tx.Lazy)
    ~deployment
    ?service:(if s.multitask then Some s.cores else s.service)
    ~seed:s.seed ~total:s.cores ()

(* The machine a spec asks for must exist: the conditions
   [Runtime.create] and [Runtime.enable_replication] enforce, checked
   here so that tm2c-sim reports a usage error naming the flag instead
   of an uncaught exception. *)
let validate s =
  let cfg = config s in
  let cores = cfg.Runtime.total_cores and service = cfg.Runtime.service_cores in
  let dedicated = cfg.Runtime.deployment = Runtime.Dedicated in
  let have = Tm2c_noc.Platform.n_cores s.platform in
  if cores < 2 then Error (Printf.sprintf "--cores %d: need at least 2 cores" cores)
  else if cores > have then
    Error
      (Printf.sprintf "--cores %d: platform %s has %d cores" cores
         (platform_to_string s.platform) have)
  else if dedicated && (service < 1 || service >= cores) then
    Error (Printf.sprintf "--service %d: need 1 <= --service < --cores (%d)" service cores)
  else if s.replicas < 0 || s.replicas > 1 then
    Error (Printf.sprintf "--replicas %d: must be 0 or 1" s.replicas)
  else if s.replicas = 1 && not dedicated then
    Error "--replicas 1: requires the dedicated deployment, not --multitask"
  else if s.replicas = 1 && service < 2 then
    Error (Printf.sprintf "--replicas 1: needs at least 2 --service cores, not %d" service)
  else Ok s

let term =
  let open Term.Syntax in
  Term.term_result' ~usage:true
  @@ let+ bench =
    Arg.(value & opt (flag_conv bench_of_string bench_to_string) default.bench
         & info [ "bench"; "b" ] ~docv:"BENCH"
             ~doc:"Benchmark: bank, hashtable, list, mapreduce, counter.")
  and+ platform =
    Arg.(value & opt (flag_conv platform_of_string platform_to_string) default.platform
         & info [ "platform"; "p" ] ~docv:"PLATFORM"
             ~doc:"Platform: scc, scc800, opteron, an SCC setting 0-4, or \
                   $(b,mesh:COLSxROWS), the SCC scaled out to a COLS x ROWS \
                   mesh of 2-core tiles (e.g. $(b,mesh:16x16), 512 cores).")
  and+ cm =
    Arg.(value & opt (flag_conv cm_of_string cm_to_string) default.cm
         & info [ "cm" ] ~docv:"CM"
             ~doc:"Contention manager: nocm, backoff, offset-greedy, wholly, faircm.")
  and+ cores = Arg.(value & opt int default.cores & info [ "cores"; "n" ] ~doc:"Total cores.")
  and+ service =
    Arg.(value & opt (some int) default.service
         & info [ "service" ] ~doc:"DTM service cores (default: half).")
  and+ multitask = Arg.(value & flag & info [ "multitask" ] ~doc:"Multitasked deployment.")
  and+ eager = Arg.(value & flag & info [ "eager" ] ~doc:"Eager write-lock acquisition.")
  and+ fault_plan =
    Arg.(value
         & opt (some (flag_conv Tm2c_noc.Fault.of_spec Tm2c_noc.Fault.to_spec)) default.fault_plan
         & info [ "fault-plan" ] ~docv:"SPEC"
             ~doc:"Deterministic fault plan, e.g. \
                   $(b,drop=0.01,dup=0.02,delay=0.05@2000,stall=8@1e6+5e5,crash=3@2e6) \
                   or $(b,none). Faults draw from their own PRNG stream, so \
                   $(b,none) is bit-for-bit the unfaulted run.")
  and+ timeout_ns =
    Arg.(value & opt float default.timeout_ns
         & info [ "timeout-ns" ] ~docv:"NS"
             ~doc:"DTM request timeout in virtual ns (0 disables): resend \
                   with the same sequence number on expiry, exponential \
                   backoff, duplicates absorbed server-side.")
  and+ lease_ns =
    Arg.(value & opt float default.lease_ns
         & info [ "lease-ns" ] ~docv:"NS"
             ~doc:"Lock lease in virtual ns (0 disables): a holder blocking \
                   a request past its lease is reclaimed under a status-word \
                   CAS (recovers orphan locks of crashed cores).")
  and+ replicas =
    Arg.(value & opt int default.replicas
         & info [ "replicas" ] ~docv:"N"
             ~doc:"Replicated DS-lock service (0 or 1): each primary ships \
                   its lock-table mutations to a backup server; clients that \
                   exhaust their resend patience bump the partition epoch and \
                   fail over to it. Requires --timeout-ns and the dedicated \
                   deployment.")
  and+ duration_ms =
    Arg.(value & opt float default.duration_ms
         & info [ "duration" ] ~doc:"Virtual milliseconds.")
  and+ seed = Arg.(value & opt int default.seed & info [ "seed" ] ~doc:"PRNG seed.")
  and+ balance =
    Arg.(value & opt int default.balance & info [ "balance" ] ~doc:"Bank: percent balance ops.")
  and+ accounts =
    Arg.(value & opt int default.accounts
         & info [ "accounts" ] ~doc:"Bank: number of accounts.")
  and+ buckets =
    Arg.(value & opt int default.buckets & info [ "buckets" ] ~doc:"Hash table: buckets.")
  and+ updates =
    Arg.(value & opt int default.updates & info [ "updates" ] ~doc:"Percent update operations.")
  and+ elastic =
    Arg.(value & opt (flag_conv elastic_of_string elastic_to_string) default.elastic
         & info [ "elastic" ] ~doc:"List: elastic mode (normal, early, read).")
  and+ size = Arg.(value & opt int default.size & info [ "size" ] ~doc:"Initial structure size.")
  and+ input_kb =
    Arg.(value & opt int default.input_kb & info [ "input-kb" ] ~doc:"MapReduce: input KB.")
  and+ chunk_kb =
    Arg.(value & opt int default.chunk_kb & info [ "chunk-kb" ] ~doc:"MapReduce: chunk KB.")
  in
  validate
    { bench; platform; cm; cores; service; multitask; eager; fault_plan; timeout_ns; lease_ns;
      replicas; duration_ms; seed; balance; accounts; buckets; updates; elastic; size; input_kb;
      chunk_kb }

(* The benchmark, size, length and seed always name the run; every
   other flag is printed only when it differs from [default]. *)
let args s =
  let d = default in
  let flag name v = [ "--" ^ name; v ] in
  let opt name same v = if same then [] else flag name v in
  let switch name on = if on then [ "--" ^ name ] else [] in
  List.concat
    [
      flag "bench" (bench_to_string s.bench);
      opt "platform" (s.platform = d.platform) (platform_to_string s.platform);
      opt "cm" (s.cm = d.cm) (cm_to_string s.cm);
      flag "cores" (string_of_int s.cores);
      (match s.service with Some n -> flag "service" (string_of_int n) | None -> []);
      switch "multitask" s.multitask;
      switch "eager" s.eager;
      flag "duration" (float_to_string s.duration_ms);
      flag "seed" (string_of_int s.seed);
      (match s.fault_plan with
      | Some p -> flag "fault-plan" (Tm2c_noc.Fault.to_spec p)
      | None -> []);
      opt "timeout-ns" (s.timeout_ns = d.timeout_ns) (float_to_string s.timeout_ns);
      opt "lease-ns" (s.lease_ns = d.lease_ns) (float_to_string s.lease_ns);
      opt "replicas" (s.replicas = d.replicas) (string_of_int s.replicas);
      opt "balance" (s.balance = d.balance) (string_of_int s.balance);
      opt "accounts" (s.accounts = d.accounts) (string_of_int s.accounts);
      opt "buckets" (s.buckets = d.buckets) (string_of_int s.buckets);
      opt "updates" (s.updates = d.updates) (string_of_int s.updates);
      opt "size" (s.size = d.size) (string_of_int s.size);
      opt "elastic" (s.elastic = d.elastic) (elastic_to_string s.elastic);
      opt "input-kb" (s.input_kb = d.input_kb) (string_of_int s.input_kb);
      opt "chunk-kb" (s.chunk_kb = d.chunk_kb) (string_of_int s.chunk_kb);
    ]

(* ---- the run ---- *)

let runtime s =
  let t = Runtime.create (config s) in
  Option.iter (Runtime.set_fault_plan t) s.fault_plan;
  if s.timeout_ns > 0.0 || s.lease_ns > 0.0 then
    Runtime.set_hardening t ~timeout_ns:s.timeout_ns ~lease_ns:s.lease_ns ();
  if s.replicas > 0 then Runtime.enable_replication t ~replicas:s.replicas;
  t

let run s t =
  let duration_ns = s.duration_ms *. 1e6 in
  match s.bench with
  | Bank ->
      let bank = Bank.create t ~accounts:s.accounts ~initial:1000 in
      let r =
        Workload.drive t ~duration_ns (fun _core ctx prng () ->
            if Tm2c_engine.Prng.int prng 100 < s.balance then
              ignore (Bank.tx_balance ctx bank)
            else begin
              let src = Tm2c_engine.Prng.int prng s.accounts
              and dst = Tm2c_engine.Prng.int prng s.accounts in
              Bank.tx_transfer ctx bank ~src ~dst ~amount:1
            end)
      in
      ( r,
        Printf.sprintf "total balance %10d (conserved: %b)\n" (Bank.total bank)
          (Bank.total bank = s.accounts * 1000) )
  | Hashtable ->
      let ht = Hashtable.create t ~n_buckets:s.buckets in
      let range = 2 * s.size in
      Hashtable.populate ht (Runtime.fork_prng t) ~n:s.size ~key_range:range;
      let r = Workload.drive t ~duration_ns (Exp.ht_mix ht ~updates:s.updates ~range) in
      Hashtable.check_invariants ht;
      (r, Printf.sprintf "final size    %10d\n" (Hashtable.size ht))
  | List_bench ->
      let l = Linkedlist.create t in
      let range = 2 * s.size in
      Linkedlist.populate l (Runtime.fork_prng t) ~n:s.size ~key_range:range;
      let r =
        Workload.drive t ~duration_ns
          (Exp.list_mix l ~mode:s.elastic ~updates:s.updates ~range)
      in
      Linkedlist.check_invariants l;
      (r, Printf.sprintf "final size    %10d\n" (Linkedlist.size l))
  | Mapreduce ->
      let mr =
        Mapreduce.create t ~seed:s.seed ~input_bytes:(s.input_kb * 1024)
          ~chunk_bytes:(s.chunk_kb * 1024)
      in
      let r =
        Workload.run_to_completion t (fun _core ctx _prng -> Mapreduce.worker ctx mr)
      in
      ( r,
        Printf.sprintf "histogram ok  %10b\n"
          (Mapreduce.histogram mr = Mapreduce.expected_histogram mr) )
  | Counter ->
      let counter = Tm2c_memory.Alloc.alloc (Runtime.alloc t) ~words:1 in
      let r =
        Workload.drive t ~duration_ns (fun _core ctx _prng () ->
            Tx.atomic ctx (fun () -> Tx.write ctx counter (Tx.read ctx counter + 1)))
      in
      (r, Printf.sprintf "counter       %10d\n" (Tm2c_memory.Shmem.peek (Runtime.shmem t) counter))
