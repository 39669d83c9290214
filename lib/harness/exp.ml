open Tm2c_core
open Tm2c_apps
open Tm2c_engine

type scale = {
  label : string;
  window_ns : float;
  long_window_ns : float;
  ht_buckets : int;
  list_elems : int;
  bank_accounts : int;
  bank_accounts_5d : int;
  mr_sizes_kb : int list;
}

let quick =
  {
    label = "quick";
    window_ns = 20e6;
    long_window_ns = 60e6;
    ht_buckets = 64;
    list_elems = 512;
    bank_accounts = 256;
    bank_accounts_5d = 512;
    mr_sizes_kb = [ 2048; 4096; 8192 ];
  }

(* CI smoke runs: same shape as [quick] but small enough that one
   experiment finishes in seconds (mirrors the test suite's scale). *)
let smoke =
  {
    label = "smoke";
    window_ns = 1.5e6;
    long_window_ns = 3e6;
    ht_buckets = 16;
    list_elems = 64;
    bank_accounts = 32;
    bank_accounts_5d = 64;
    mr_sizes_kb = [ 64 ];
  }

let full =
  {
    label = "full";
    window_ns = 100e6;
    long_window_ns = 400e6;
    ht_buckets = 64;
    list_elems = 2048;
    bank_accounts = 1024;
    bank_accounts_5d = 2048;
    mr_sizes_kb = [ 8192; 16384; 32768 ];
  }

let core_series = [ 2; 4; 8; 16; 32; 48 ]

type runner = Runtime.t -> (unit -> Workload.result) -> Workload.result

type t = { scale : scale; runner : runner }

let v ?(runner = fun _ drive -> drive ()) scale = { scale; runner }

let run ex cfg build =
  let t = Runtime.create cfg in
  let drive = build t in
  (t, ex.runner t drive)

let config ?(platform = Tm2c_noc.Platform.scc) ?(policy = Cm.Fair_cm)
    ?(wmode = Tx.Lazy) ?(deployment = Runtime.Dedicated) ?service ?(seed = 42)
    ~total () =
  let service = match service with Some s -> s | None -> max 1 (total / 2) in
  {
    Runtime.default_config with
    platform;
    total_cores = total;
    service_cores = service;
    deployment;
    policy;
    wmode;
    seed;
  }

type mix = Types.core_id -> Tx.ctx -> Prng.t -> unit -> unit

let ht_mix ht ~updates ?(moves = 0) ?(payload = 0) ~range _core ctx prng () =
  if payload > 0 then Tx.compute ctx payload;
  let k = Prng.int prng range in
  let p = Prng.int prng 100 in
  if p < moves then ignore (Hashtable.tx_move ctx ht k (Prng.int prng range))
  else if p < updates then
    if p land 1 = 0 then ignore (Hashtable.tx_add ctx ht k)
    else ignore (Hashtable.tx_remove ctx ht k)
  else ignore (Hashtable.tx_contains ctx ht k)

let list_mix l ~mode ~updates ~range _core ctx prng () =
  let k = Prng.int prng range in
  let p = Prng.int prng 100 in
  if p < updates then
    if p land 1 = 0 then ignore (Linkedlist.tx_add ~mode ctx l k)
    else ignore (Linkedlist.tx_remove ~mode ctx l k)
  else ignore (Linkedlist.tx_contains ~mode ctx l k)

let bank_mix bank ~balance _core ctx prng () =
  let n = Bank.accounts bank in
  if Prng.int prng 100 < balance then ignore (Bank.tx_balance ctx bank)
  else begin
    let src = Prng.int prng n and dst = Prng.int prng n in
    if src <> dst then Bank.tx_transfer ctx bank ~src ~dst ~amount:1
  end

let seq_throughput ex make_op =
  let _, r =
    run ex (config ~total:2 ~service:1 ()) (fun t ->
        let make_op = make_op t in
        fun () -> Workload.drive_seq t ~duration_ns:ex.scale.window_ns make_op)
  in
  r.Workload.throughput_ops_ms

(* Ratios (speedup, normalized throughput) over windows that may have
   seen no commits: a zero/negative denominator yields [nan] — rendered
   as "n/a" by [print_table] — rather than a fake 0.0 data point. *)
let ratio num den = if den > 0.0 then num /. den else Float.nan

let print_table ~title ~header rows =
  Printf.printf "\n%s\n" title;
  let widths =
    List.map (fun h -> max 9 (String.length h + 2)) header
  in
  List.iteri
    (fun i h -> Printf.printf "%*s" (List.nth widths i) h)
    header;
  print_newline ();
  List.iter
    (fun (label, cells) ->
      Printf.printf "%*s" (List.nth widths 0) label;
      List.iteri
        (fun i v ->
          let w = if i + 1 < List.length widths then List.nth widths (i + 1) else 9 in
          if not (Float.is_finite v) then Printf.printf "%*s" w "n/a"
          else if Float.is_integer v && Float.abs v < 1e6 then
            Printf.printf "%*.0f" w v
          else Printf.printf "%*.2f" w v)
        cells;
      print_newline ())
    rows;
  flush stdout

let row_label_int = string_of_int
