open Tm2c_engine

(* Always-on message-layer metrics: cheap counters only (a sketch
   add and two array increments per send), so they never perturb the
   simulated timings. *)
type metrics = {
  per_link : int array array;  (* [src].(dst) messages sent *)
  latency : Sketch.t;  (* in-flight ns: wire hops + detection scan *)
  mutable poll_scans : int;  (* fruitless try_recv scans *)
  mutable poll_scan_ns : float;  (* virtual ns burned by those scans *)
}

type 'a t = {
  sim : Sim.t;
  platform : Platform.t;
  active : int;
  n : int;  (* total cores; stride of the flight table *)
  (* Timing constants hoisted out of the per-message path. Each entry
     is the value the corresponding [Platform] function returns — same
     expression, evaluated once — so every virtual timestamp is
     bit-for-bit identical to computing it per call. *)
  send_oh : float;
  poll_cost : float;  (* fruitless scan over all active cores' flags *)
  flight_tab : float array;  (* [src * n + dst] = Platform.flight_ns *)
  cycles_tab : float array;  (* [c] = Platform.cycles_ns, -1.0 = unset *)
  boxes : 'a Mailbox.t array;
  mutable n_sent : int;
  metrics : metrics;
  mutable faults : Fault.t option;
}

let cycles_memo = 2048

let create sim platform ~active =
  let n = Platform.n_cores platform in
  {
    sim;
    platform;
    active;
    n;
    send_oh = Platform.send_overhead_ns platform;
    poll_cost = float_of_int active *. platform.Platform.msg_poll_per_core_ns;
    flight_tab =
      Array.init (n * n) (fun i ->
          Platform.flight_ns platform ~active ~src:(i / n) ~dst:(i mod n));
    cycles_tab = Array.make cycles_memo (-1.0);
    boxes =
      Array.init n (fun _ ->
          Mailbox.create ~recv_charge_ns:(Platform.recv_overhead_ns platform) sim);
    n_sent = 0;
    metrics =
      {
        per_link = Array.init n (fun _ -> Array.make n 0);
        latency = Sketch.create ();
        poll_scans = 0;
        poll_scan_ns = 0.0;
      };
    faults = None;
  }

let set_faults net f = net.faults <- f

let faults net = net.faults

let sim net = net.sim

let platform net = net.platform

let active net = net.active

let metrics net = net.metrics

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
  net.metrics.per_link.(src).(dst) <- net.metrics.per_link.(src).(dst) + 1;
  Sim.delay net.send_oh;
  let flight = net.flight_tab.((src * net.n) + dst) in
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

(* Busiest links first; zero links omitted. *)
let top_links ?(limit = 16) net =
  let acc = ref [] in
  Array.iteri
    (fun src row ->
      Array.iteri (fun dst c -> if c > 0 then acc := (src, dst, c) :: !acc) row)
    net.metrics.per_link;
  let sorted = List.sort (fun (_, _, a) (_, _, b) -> compare b a) !acc in
  List.filteri (fun i _ -> i < limit) sorted

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
