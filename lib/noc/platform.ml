type cache_model = { capacity_words : int; hit_ns : float }

type t = {
  name : string;
  topology : Topology.t;
  core_hz : float;
  msg_send_cycles : int;
  msg_recv_cycles : int;
  msg_hop_ns : float;
  msg_poll_per_core_ns : float;
  mem_base_ns : float;
  mem_hop_ns : float;
  mem_write_ns : float;
  mem_service_ns : float;
  tas_ns : float;
  cache : cache_model option;
}

(* Section 5.1 settings table: tile MHz, mesh MHz, DRAM MHz. *)
let scc_settings = [| (533, 800, 800); (800, 1600, 1066); (800, 1600, 800); (800, 800, 1066); (800, 800, 800) |]

(* Software messaging costs on the SCC, in core cycles. 1170 cycles of
   combined send+receive software overhead at 533 MHz yields the
   2.2 us one-way base that reproduces Fig. 8a's 5.1 us round trip on
   2 cores; 40 cycles per scanned flag yields the 12.4 us round trip
   on 48 cores. *)
let scc_send_cycles = 600
let scc_recv_cycles = 570
let scc_poll_cycles = 40

let scc_setting i =
  if i < 0 || i > 4 then invalid_arg "Platform.scc_setting: setting must be in 0-4";
  let tile_mhz, mesh_mhz, dram_mhz = scc_settings.(i) in
  let core_hz = float_of_int tile_mhz *. 1e6 in
  let mesh_hz = float_of_int mesh_mhz *. 1e6 in
  (* An uncached shared-memory access crosses the mesh to a DDR3
     controller: command + burst, about 400 DRAM-clock ns at 800 MHz.
     The P54C cannot cache the shared region, so every transactional
     memory access pays this. *)
  let mem_base_ns = 320_000.0 /. float_of_int dram_mhz in
  {
    name = (if i = 0 then "SCC" else if i = 1 then "SCC800" else Printf.sprintf "SCC-s%d" i);
    topology = Topology.scc;
    core_hz;
    msg_send_cycles = scc_send_cycles;
    msg_recv_cycles = scc_recv_cycles;
    msg_hop_ns = 4.0 *. 1e9 /. mesh_hz;
    msg_poll_per_core_ns = float_of_int scc_poll_cycles *. 1e9 /. core_hz;
    mem_base_ns;
    mem_hop_ns = 8.0 *. 1e9 /. mesh_hz;
    mem_write_ns = mem_base_ns *. 0.45;
    mem_service_ns = 36_000.0 /. float_of_int dram_mhz;
    tas_ns = 180.0;
    cache = None;
  }

let scc = scc_setting 0

let scc800 = scc_setting 1

(* Scaled-out SCC-style mesh for beyond-chip simulations (hundreds to
   thousands of cores): identical per-core software costs, per-hop wire
   latency and memory parameters as the SCC under setting 0, on a
   [cols] x [rows] mesh of 2-core tiles. The polling-detection latency
   still grows with the number of active cores, so messaging slows down
   with scale exactly as the SCC model predicts it would. *)
let scc_mesh ~cols ~rows =
  if cols < 1 || rows < 1 then
    invalid_arg "Platform.scc_mesh: need cols >= 1 and rows >= 1";
  {
    scc with
    name = Printf.sprintf "SCC-mesh-%dx%d" cols rows;
    topology = Topology.Mesh { cols; rows; cores_per_tile = 2 };
  }

let opteron =
  let core_hz = 2.1e9 in
  {
    name = "Opteron";
    topology = Topology.opteron48;
    core_hz;
    (* Barrelfish-style channels: writing and reading a cache line is
       cheap, but polling 47 channels costs a coherence miss per
       channel, so detection dominates at scale (Fig. 8a). *)
    msg_send_cycles = 1250;
    msg_recv_cycles = 1150;
    msg_hop_ns = 0.0;
    msg_poll_per_core_ns = 90.0;
    mem_base_ns = 140.0;
    mem_hop_ns = 0.0;
    mem_write_ns = 110.0;
    mem_service_ns = 16.0;
    tas_ns = 120.0;
    cache = Some { capacity_words = 8192; hit_ns = 8.0 };
  }

let all = [ scc; scc800; opteron ]

let n_cores p = Topology.n_cores p.topology

let cycles_ns p c = float_of_int c *. 1e9 /. p.core_hz

let send_overhead_ns p = cycles_ns p p.msg_send_cycles

let recv_overhead_ns p = cycles_ns p p.msg_recv_cycles

let flight_of_hops p ~active ~hops =
  (float_of_int hops *. p.msg_hop_ns) +. (float_of_int active *. p.msg_poll_per_core_ns)

let flight_ns p ~active ~src ~dst =
  flight_of_hops p ~active ~hops:(Topology.hops p.topology src dst)

let one_way_ns p ~active ~src ~dst =
  send_overhead_ns p +. flight_ns p ~active ~src ~dst +. recv_overhead_ns p

let mem_read_ns p ~core ~mc =
  p.mem_base_ns
  +. (float_of_int (Topology.hops_to_mc p.topology ~core ~mc) *. p.mem_hop_ns)

let mem_write_ns p ~core ~mc =
  p.mem_write_ns
  +. (float_of_int (Topology.hops_to_mc p.topology ~core ~mc) *. p.mem_hop_ns)

let pp fmt p =
  Format.fprintf fmt
    "%s: %d cores @ %.0f MHz, msg base %.2f us, poll %.0f ns/core, mem %.0f ns"
    p.name (n_cores p) (p.core_hz /. 1e6)
    ((send_overhead_ns p +. recv_overhead_ns p) /. 1e3)
    p.msg_poll_per_core_ns p.mem_base_ns
