open Tm2c_engine
open Tm2c_noc

type addr = int

(* Private per-core cache: FIFO-bounded map from address to the word
   version observed when cached. An entry is valid iff its version
   still matches the word's current version. *)
type cache = {
  entries : (addr, int) Hashtbl.t;
  fifo : addr Queue.t;
  capacity : int;
}

(* [data] and [versions] back addresses [0, Array.length data) and
   always have the same length; they start small and double on a store
   past their end, up to [words]. An address below [words] that was
   never stored to reads 0 with version 0, exactly as in an eagerly
   zeroed memory. *)
type t = {
  sim : Sim.t;
  platform : Platform.t;
  words : int;
  mutable data : int array;
  mutable versions : int array;
  caches : cache array option;
  region_shift : int;
  mc_busy : float array;  (* per-controller queue: busy-until time *)
  core_x : int array;  (* per core: mesh column of its tile *)
  core_y : int array;  (* per core: mesh row of its tile *)
  mc_x : int array;  (* per controller: mesh column it attaches to *)
  mc_y : int array;  (* per controller: mesh row it attaches to *)
  mutable reads : int;
  mutable writes : int;
}

let initial_words = 1024

let create sim platform ~words =
  let caches =
    match platform.Platform.cache with
    | None -> None
    | Some { Platform.capacity_words; _ } ->
        let make _ =
          { entries = Hashtbl.create 1024; fifo = Queue.create (); capacity = capacity_words }
        in
        Some (Array.init (Platform.n_cores platform) make)
  in
  let backed = min words initial_words in
  let topo = platform.Platform.topology in
  let core_x, core_y = Topology.core_xy topo and mc_x, mc_y = Topology.mc_xy topo in
  (* Regions of 64 Ki words (512 KB) per controller stripe: big enough
     that a compact structure stays within one controller. *)
  {
    sim;
    platform;
    words;
    data = Array.make backed 0;
    versions = Array.make backed 0;
    caches;
    region_shift = 16;
    mc_busy = Array.make (Topology.n_memory_controllers topo) 0.0;
    core_x;
    core_y;
    mc_x;
    mc_y;
    reads = 0;
    writes = 0;
  }

let words t = t.words

(* The library is built with -unsafe, so the bounds check is explicit;
   it raises what OCaml's own array bounds check raises. *)
let check_addr t addr =
  if addr < 0 || addr >= t.words then invalid_arg "index out of bounds"

(* Untouched addresses read 0. *)
let load arr t addr =
  check_addr t addr;
  if addr < Array.length arr then arr.(addr) else 0

(* Make [addr] backed before a store. *)
let reserve t addr =
  check_addr t addr;
  let backed = Array.length t.data in
  if addr >= backed then begin
    let cap = ref (2 * backed) in
    while !cap <= addr do
      cap := 2 * !cap
    done;
    let cap = min !cap t.words in
    let grow a =
      let b = Array.make cap 0 in
      Array.blit a 0 b 0 backed;
      b
    in
    t.data <- grow t.data;
    t.versions <- grow t.versions
  end

let store t addr v =
  reserve t addr;
  t.data.(addr) <- v;
  t.versions.(addr) <- t.versions.(addr) + 1

let mc_of_addr t addr =
  (addr lsr t.region_shift) land (Topology.n_memory_controllers t.platform.Platform.topology - 1)

(* Concurrent accesses to the same controller serialize: reserve a
   service slot and fold the queueing delay into this access. *)
let[@inline] mc_queue_delay t mc =
  let now = Sim.now t.sim in
  let busy = t.mc_busy.(mc) in
  let start = if busy > now then busy else now in
  t.mc_busy.(mc) <- start +. t.platform.Platform.mem_service_ns;
  start -. now

(* [Platform.mem_read_ns] (base [mem_base_ns]) or [mem_write_ns]
   (base [mem_write_ns]), the same expression, with the hops taken from
   the flat coordinates: no tuple per access. *)
let[@inline] mem_ns t base ~core ~mc =
  let hops = abs (t.core_x.(core) - t.mc_x.(mc)) + abs (t.core_y.(core) - t.mc_y.(mc)) in
  base +. (float_of_int hops *. t.platform.Platform.mem_hop_ns)

let cache_lookup c t addr =
  match Hashtbl.find_opt c.entries addr with
  | Some v when v = load t.versions t addr -> true
  | Some _ ->
      Hashtbl.remove c.entries addr;
      false
  | None -> false

let cache_insert c addr version =
  if not (Hashtbl.mem c.entries addr) then begin
    Queue.push addr c.fifo;
    if Queue.length c.fifo > c.capacity then begin
      let victim = Queue.pop c.fifo in
      Hashtbl.remove c.entries victim
    end
  end;
  Hashtbl.replace c.entries addr version

let read t ~core addr =
  t.reads <- t.reads + 1;
  let mc = mc_of_addr t addr in
  let latency =
    match t.caches with
    | Some caches when cache_lookup caches.(core) t addr -> (
        match t.platform.Platform.cache with
        | Some { Platform.hit_ns; _ } -> hit_ns
        | None -> assert false)
    | Some caches ->
        cache_insert caches.(core) addr (load t.versions t addr);
        mc_queue_delay t mc +. mem_ns t t.platform.Platform.mem_base_ns ~core ~mc
    | None -> mc_queue_delay t mc +. mem_ns t t.platform.Platform.mem_base_ns ~core ~mc
  in
  Sim.delay latency;
  load t.data t addr

let write t ~core addr v =
  t.writes <- t.writes + 1;
  let mc = mc_of_addr t addr in
  Sim.delay (mc_queue_delay t mc +. mem_ns t t.platform.Platform.mem_write_ns ~core ~mc);
  store t addr v;
  (* The writer keeps its own copy valid (write-through). *)
  match t.caches with
  | Some caches -> cache_insert caches.(core) addr t.versions.(addr)
  | None -> ()

(* A transaction's write-back after its linearization point must be
   atomic in simulated time: applying the stores one [write] at a time
   yields between them, and a run horizon can freeze the fiber halfway
   through — half-applied write sets break atomicity for everyone
   else. Apply the data immediately, then charge the cumulative memory
   latency of all the stores as one delay. *)
let write_burst t ~core pairs =
  let latency =
    List.fold_left
      (fun acc (addr, v) ->
        t.writes <- t.writes + 1;
        let mc = mc_of_addr t addr in
        let d = mc_queue_delay t mc +. mem_ns t t.platform.Platform.mem_write_ns ~core ~mc in
        store t addr v;
        (match t.caches with
        | Some caches -> cache_insert caches.(core) addr t.versions.(addr)
        | None -> ());
        acc +. d)
      0.0 pairs
  in
  if pairs <> [] then Sim.delay latency

let peek t addr = load t.data t addr

let poke t addr v = store t addr v

let n_reads t = t.reads

let n_writes t = t.writes
