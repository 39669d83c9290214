(* Unbounded FIFO mailbox over a power-of-two ring buffer, with timed
   deliveries routed through a Sim port: [send_at] parks the payload in
   a pooled slot and schedules just (port, slot) ints — no per-message
   closure — and the port handler moves the payload to the ring, or
   hands it to the receiver parked in [spot], at delivery time.

   The mailbox owns the receive charge: every successful receive counts
   in [received] and delays the receiver by [recv_oh]. Owning it is what
   lets a delivery fuse the charge into its own dispatch (see
   [deliver_slot]). Only tests build uncharged boxes ([recv_oh = None]). *)

type 'a t = {
  sim : Sim.t;
  mutable buf : 'a array; (* ring; capacity a power of two *)
  mutable head : int; (* read position *)
  mutable len : int;
  spot : Sim.spot; (* the receiver blocked on an empty mailbox *)
  mutable handoff : 'a; (* delivered to the parked receiver, not queued *)
  mutable handed : bool; (* [handoff] holds a value *)
  mutable precharged : bool; (* the delivery already paid the receive charge *)
  mutable stamp : int; (* bumped as each [recv_timeout] ends: its timer goes inert *)
  recv_oh : float option; (* the receive charge, in virtual ns *)
  mutable received : int;
  mutable port : int; (* Sim port for timed deliveries *)
  mutable slots : 'a array; (* in-flight timed-delivery payloads *)
  mutable free : int array; (* free slot indices, used as a stack *)
  mutable free_top : int;
}

(* Immediate dummy for empty ring and slot cells: never read, keeps
   dead cells from retaining delivered payloads, and forces
   [Array.make] to build generic (non-flat) arrays. [Obj.magic] is
   confined to this one constant. *)
let dummy : 'a. unit -> 'a = fun () -> Obj.magic 0

let ring_push mb v =
  let cap = Array.length mb.buf in
  if mb.len = cap then begin
    let ncap = if cap = 0 then 16 else 2 * cap in
    let nb = Array.make ncap (dummy ()) in
    for i = 0 to mb.len - 1 do
      nb.(i) <- mb.buf.((mb.head + i) land (cap - 1))
    done;
    mb.buf <- nb;
    mb.head <- 0
  end;
  mb.buf.((mb.head + mb.len) land (Array.length mb.buf - 1)) <- v;
  mb.len <- mb.len + 1

(* Precondition: [mb.len > 0]. *)
let ring_pop mb =
  let i = mb.head in
  let v = mb.buf.(i) in
  mb.buf.(i) <- dummy ();
  mb.head <- (i + 1) land (Array.length mb.buf - 1);
  mb.len <- mb.len - 1;
  v

let give mb v =
  mb.handoff <- v;
  mb.handed <- true

let send mb v =
  if Sim.is_parked mb.spot then begin
    give mb v;
    Sim.wake mb.spot
  end
  else ring_push mb v

(* The port handler. The hand-off is its last action, so when no other
   event is due at this instant the receiver's wake-up event would be
   the very next pop. Then the receiver's first step — count the
   message, [delay recv_oh] — is done here, and the receiver is queued
   straight at [now + recv_oh]. [free] always has one index per slot,
   so releasing never overflows. *)
let deliver_slot mb slot =
  let v = mb.slots.(slot) in
  mb.slots.(slot) <- dummy ();
  mb.free.(mb.free_top) <- slot;
  mb.free_top <- mb.free_top + 1;
  if not (Sim.is_parked mb.spot) then ring_push mb v
  else begin
    give mb v;
    match mb.recv_oh with
    | Some oh when Sim.none_due_now mb.sim ->
        mb.received <- mb.received + 1;
        mb.precharged <- true;
        Sim.hand_off_after mb.spot oh
    | Some _ | None -> Sim.wake mb.spot
  end

let create ?recv_charge_ns sim =
  let mb =
    {
      sim;
      buf = [||];
      head = 0;
      len = 0;
      spot = Sim.spot sim;
      handoff = dummy ();
      handed = false;
      precharged = false;
      stamp = 0;
      recv_oh = recv_charge_ns;
      received = 0;
      port = -1;
      slots = [||];
      free = [||];
      free_top = 0;
    }
  in
  mb.port <- Sim.register_port sim (fun slot -> deliver_slot mb slot);
  mb

let length mb = mb.len

let received mb = mb.received

let alloc_slot mb v =
  if mb.free_top = 0 then begin
    let old = Array.length mb.slots in
    let ncap = if old = 0 then 16 else 2 * old in
    let ns = Array.make ncap (dummy ()) in
    Array.blit mb.slots 0 ns 0 old;
    mb.slots <- ns;
    let nf = Array.make ncap 0 in
    for i = 0 to ncap - old - 1 do
      nf.(i) <- old + i
    done;
    mb.free <- nf;
    mb.free_top <- ncap - old
  end;
  mb.free_top <- mb.free_top - 1;
  let slot = mb.free.(mb.free_top) in
  mb.slots.(slot) <- v;
  slot

let send_at mb ~at v =
  let slot = alloc_slot mb v in
  Sim.schedule_port mb.sim ~at ~port:mb.port ~slot

(* The one charged path every successful receive takes. *)
let charge mb v =
  if mb.precharged then mb.precharged <- false
  else begin
    mb.received <- mb.received + 1;
    match mb.recv_oh with Some oh -> Sim.delay oh | None -> ()
  end;
  v

(* After [park] returns, when a delivery woke us ([handed]). *)
let take_handoff mb =
  let v = mb.handoff in
  mb.handoff <- dummy ();
  mb.handed <- false;
  v

let recv mb =
  if mb.len > 0 then charge mb (ring_pop mb)
  else begin
    Sim.park mb.spot;
    if not mb.handed then invalid_arg "Mailbox.recv: woken without a message";
    charge mb (take_handoff mb)
  end

let try_recv mb = if mb.len > 0 then Some (charge mb (ring_pop mb)) else None

(* The timer wakes the receiver only while this receive lasts ([stamp]
   unchanged) and the receiver is still parked: once a delivery has
   woken it, the timer is inert, even when the receiver has since
   parked again. A message landing at the timeout's own instant after
   the timer went off finds nobody parked and stays queued. *)
let recv_timeout mb ~timeout_ns =
  if mb.len > 0 then Some (charge mb (ring_pop mb))
  else begin
    let stamp = mb.stamp in
    Sim.schedule mb.sim ~at:(Sim.now mb.sim +. timeout_ns) (fun () ->
        if mb.stamp = stamp then Sim.wake mb.spot);
    Sim.park mb.spot;
    mb.stamp <- stamp + 1;
    if mb.handed then Some (charge mb (take_handoff mb)) else None
  end
