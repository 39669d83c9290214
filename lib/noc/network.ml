open Tm2c_engine

(* Always-on message-layer metrics: cheap counters only (a sketch
   add, a counter and one append to the link log per send), so they
   never perturb the simulated timings. *)
type metrics = {
  latency : Sketch.t;  (* in-flight ns: wire hops + detection scan *)
  mutable poll_scans : int;  (* fruitless try_recv scans *)
  mutable poll_scan_ns : float;  (* virtual ns burned by those scans *)
}

type 'a t = {
  sim : Sim.t;
  platform : Platform.t;
  active : int;
  (* Timing constants hoisted out of the per-message path. Each entry
     is the value the corresponding [Platform] function returns — same
     expression, evaluated once — so every virtual timestamp is
     bit-for-bit identical to computing it per call. *)
  send_oh : float;
  poll_cost : float;  (* fruitless scan over all active cores' flags *)
  tile_x : int array;  (* per core: mesh column of its tile *)
  tile_y : int array;  (* per core: mesh row of its tile *)
  flight_tab : float array;  (* [hops] = Platform.flight_of_hops *)
  cycles_tab : float array;  (* [c] = Platform.cycles_ns, -1.0 = unset *)
  boxes : 'a Mailbox.t array;
  mutable n_sent : int;
  metrics : metrics;
  (* Per-link send counts. A send appends [src * n + dst] to [log], a
     sequential write that stays in L1; the log is folded into the
     flat n*n [links] table when it fills and before any read. A
     direct increment would write one random line of the n*n table per
     message, 2 MB at 512 cores. *)
  n : int;
  links : int array;  (* [src * n + dst]: messages sent, up to the last fold *)
  log : int array;
  mutable log_len : int;
  mutable faults : Fault.t option;
}

let cycles_memo = 2048

(* Link-log entries between folds: 4 KB. Long enough that a fold's
   independent increments overlap their cache misses; short enough
   that streaming through the log evicts little else from L1 (a
   32 KB log slowed the 48-core checked workload by about 4%). *)
let log_cap = 512

let create sim platform ~active =
  let n = Platform.n_cores platform in
  let topo = platform.Platform.topology in
  let tile_x, tile_y = Topology.core_xy topo in
  (* Coordinates start at 0, so no XY route is longer than this. *)
  let max_hops = Array.fold_left max 0 tile_x + Array.fold_left max 0 tile_y in
  {
    sim;
    platform;
    active;
    send_oh = Platform.send_overhead_ns platform;
    poll_cost = float_of_int active *. platform.Platform.msg_poll_per_core_ns;
    tile_x;
    tile_y;
    flight_tab =
      Array.init (max_hops + 1) (fun hops -> Platform.flight_of_hops platform ~active ~hops);
    cycles_tab = Array.make cycles_memo (-1.0);
    boxes =
      Array.init n (fun _ ->
          Mailbox.create ~recv_charge_ns:(Platform.recv_overhead_ns platform) sim);
    n_sent = 0;
    metrics =
      {
        latency = Sketch.create ();
        poll_scans = 0;
        poll_scan_ns = 0.0;
      };
    n;
    links = Array.make (n * n) 0;
    log = Array.make log_cap 0;
    log_len = 0;
    faults = None;
  }

let set_faults net f = net.faults <- f

let platform net = net.platform

let metrics net = net.metrics

let fold_links net =
  let links = net.links and log = net.log in
  for i = 0 to net.log_len - 1 do
    let l = log.(i) in
    links.(l) <- links.(l) + 1
  done;
  net.log_len <- 0

let log_link net ~src ~dst =
  let i = net.log_len in
  net.log.(i) <- (src * net.n) + dst;
  net.log_len <- i + 1;
  if i + 1 = log_cap then fold_links net

let link_count net ~src ~dst =
  if net.log_len > 0 then fold_links net;
  net.links.((src * net.n) + dst)

let link_counts net =
  fold_links net;
  Array.copy net.links

(* XY-routing hop count, as [Topology.hops], from the per-core
   coordinates: no tuple is built on the per-send path. *)
let flight_ns net ~src ~dst =
  let hops =
    abs (net.tile_x.(src) - net.tile_x.(dst)) + abs (net.tile_y.(src) - net.tile_y.(dst))
  in
  net.flight_tab.(hops)

(* Fault-injected delivery, split out of [send_msg] so the common
   no-fault path stays closure-free. *)
let send_faulty net f ~src ~dst ~flight ~at msg =
  let deliver_at at = Mailbox.send_at net.boxes.(dst) ~at msg in
  (* A partitioned link holds the message until the window heals
     (it then still takes its flight time); the link fault applies
     on top. The sender has already paid its software overhead:
     injection perturbs only what happens on the wire. *)
  let at =
    match Fault.partition_release f ~src ~dst ~now:(Sim.now net.sim) with
    | Some heal ->
        Fault.count_partitioned f;
        heal +. flight
    | None -> at
  in
  if Fault.link_active f then begin
    match Fault.link_action f ~src ~dst with
    | Fault.Deliver -> deliver_at at
    | Fault.Drop -> ()
    | Fault.Duplicate ->
        deliver_at at;
        (* The duplicate takes a second trip over the same link. *)
        deliver_at (at +. flight)
    | Fault.Delay extra_ns -> deliver_at (at +. extra_ns)
  end
  else deliver_at at

let send_msg net ~src ~dst ~faulty msg =
  (* Self-profiler: attribute the current scheduler dispatch to the
     message layer (no-op unless a host clock is injected into the
     simulation; see Sim.prof_mark). *)
  Sim.prof_mark net.sim Sim.prof_cat_network;
  net.n_sent <- net.n_sent + 1;
  log_link net ~src ~dst;
  Sim.delay net.send_oh;
  let flight = flight_ns net ~src ~dst in
  Sketch.add net.metrics.latency flight;
  let at = Sim.now net.sim +. flight in
  match net.faults with
  | Some f when faulty -> send_faulty net f ~src ~dst ~flight ~at msg
  | _ -> Mailbox.send_at net.boxes.(dst) ~at msg

let send net ~src ~dst msg = send_msg net ~src ~dst ~faulty:true msg

(* The primary->backup replication channel is modeled as reliable FIFO
   (as if link-layer acked): it pays the same software overhead and
   flight time but bypasses fault injection entirely. Without this,
   one dropped replication message would silently diverge the backup's
   replica from what the primary granted — a failure mode the epoch
   protocol does not claim to survive (see DESIGN.md "Failover"). *)
let send_reliable net ~src ~dst msg = send_msg net ~src ~dst ~faulty:false msg

let recv net ~self = Mailbox.recv net.boxes.(self)

(* Non-suspending take used by the service loop's batch drain: when a
   message has already arrived it is taken with exactly [recv]'s
   virtual-time charge; when the mailbox is empty nothing is charged
   (unlike [try_recv]'s fruitless-scan cost) and the caller falls back
   to a blocking [recv]. *)
let recv_pending net ~self = Mailbox.try_recv net.boxes.(self)

let recv_timeout net ~self ~timeout_ns =
  Mailbox.recv_timeout net.boxes.(self) ~timeout_ns

let try_recv net ~self =
  match Mailbox.try_recv net.boxes.(self) with
  | Some _ as msg -> msg
  | None ->
      (* A fruitless scan over the flags of all active cores. *)
      let cost = net.poll_cost in
      net.metrics.poll_scans <- net.metrics.poll_scans + 1;
      net.metrics.poll_scan_ns <- net.metrics.poll_scan_ns +. cost;
      Sim.delay cost;
      None

let pending net ~self = Mailbox.length net.boxes.(self)

let sent net = net.n_sent

let received net = Array.fold_left (fun acc box -> acc + Mailbox.received box) 0 net.boxes

(* One pass, no sort: the heaviest pairs seen so far sit in three
   small arrays, heaviest first. Pairs are offered from (n-1, n-1)
   down to (0, 0) and a newcomer goes after every kept entry at least
   as heavy, so ties come out in offer order. *)
let top_pairs ~limit n weight =
  let cap = max 0 (min limit (n * n)) in
  let ws = Array.make cap 0 and ss = Array.make cap 0 and ds = Array.make cap 0 in
  let len = ref 0 in
  for src = n - 1 downto 0 do
    for dst = n - 1 downto 0 do
      let w = weight src dst in
      if w > 0 && (!len < cap || (!len > 0 && w > ws.(!len - 1))) then begin
        let i = ref (min !len (cap - 1)) in
        while !i > 0 && ws.(!i - 1) < w do
          ws.(!i) <- ws.(!i - 1);
          ss.(!i) <- ss.(!i - 1);
          ds.(!i) <- ds.(!i - 1);
          decr i
        done;
        ws.(!i) <- w;
        ss.(!i) <- src;
        ds.(!i) <- dst;
        if !len < cap then incr len
      end
    done
  done;
  List.init !len (fun i -> (ss.(i), ds.(i), ws.(i)))

let top_links ?(limit = 16) net =
  fold_links net;
  let n = net.n and links = net.links in
  top_pairs ~limit n (fun src dst -> links.((src * n) + dst))

(* Memoized cycles->ns conversion: the DTM charges a handful of
   distinct cycle counts millions of times, and each fresh conversion
   is a float division. Misses past the memo window fall back to the
   direct formula; hits return the exact value that formula produced. *)
let cycles_ns net cycles =
  if cycles >= 0 && cycles < cycles_memo then begin
    let v = net.cycles_tab.(cycles) in
    if v >= 0.0 then v
    else begin
      let v = Platform.cycles_ns net.platform cycles in
      net.cycles_tab.(cycles) <- v;
      v
    end
  end
  else Platform.cycles_ns net.platform cycles

let compute net cycles = Sim.delay (cycles_ns net cycles)
