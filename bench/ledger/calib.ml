(* The calibration kernels: fixed pieces of work whose host time
   tracks the speed of the machine at the moment, so that host times
   can be reported in reference seconds.

   On a shared VM the host's speed drifts: it can run at half speed for
   a minute or two at a time, which moves every host time of a run by
   far more than any change a benchmark should detect. The ledger runs
   the steady-state kernel between the runs it times, and scales a run's
   host times by [reference_s] over the kernel's time around it. A
   change to the simulator moves the simulator's time and not the
   kernel's, so it shows in full; a slow host moves both, and cancels
   out.

   The steady-state kernel resembles the simulator's own work: a
   discrete-event loop over a binary heap, a hash table, short-lived
   allocations and dependent loads across a working set larger than the
   caches. A set-up is different work: much of its time goes to
   faulting in fresh memory, which a slow host can slow more than it
   slows computing. So set-up times have a kernel of their own,
   [setup_seconds], run in the set-up process next to the set-up it
   calibrates.

   Neither kernel depends on code of the repository, so no change to
   the simulator moves them. Their work is fixed for good: changing it
   rescales every host time the ledger has reported. *)

(* The kernel's median time on the machine the bounds were set on (a
   shared 2-vCPU VM), so a reference second is about a host second
   there. *)
let reference_s = 0.13

let lcg state =
  state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
  !state

(* A random cyclic permutation of 2M slots (16 MB): following it costs
   one cache miss a step. Built once, on the first (warm-up) run. *)
let chase =
  lazy
    (let state = ref 0x1234567 in
     let n = 1 lsl 21 in
     let a = Array.init n (fun i -> i) in
     for i = n - 1 downto 1 do
       let j = lcg state mod i in
       let x = a.(i) in
       a.(i) <- a.(j);
       a.(j) <- x
     done;
     a)

(* Events per run of the kernel at full length. *)
let events = 500_000

let kernel ~events =
  let chase = Lazy.force chase in
  let state = ref 0x2545F491 in
  let live = 4096 in
  let times = Array.make live 0 and ids = Array.make live 0 and size = ref 0 in
  let push t i =
    let k = ref !size in
    incr size;
    while !k > 0 && times.((!k - 1) / 2) > t do
      let p = (!k - 1) / 2 in
      times.(!k) <- times.(p);
      ids.(!k) <- ids.(p);
      k := p
    done;
    times.(!k) <- t;
    ids.(!k) <- i
  in
  let pop () =
    let t = times.(0) and i = ids.(0) in
    decr size;
    let lt = times.(!size) and li = ids.(!size) in
    let k = ref 0 and sifting = ref true in
    while !sifting do
      let c = (2 * !k) + 1 in
      if c >= !size then sifting := false
      else
        let c = if c + 1 < !size && times.(c + 1) < times.(c) then c + 1 else c in
        if times.(c) < lt then begin
          times.(!k) <- times.(c);
          ids.(!k) <- ids.(c);
          k := c
        end
        else sifting := false
    done;
    times.(!k) <- lt;
    ids.(!k) <- li;
    (t, i)
  in
  let table = Hashtbl.create 4096 in
  for i = 0 to live - 1 do
    push (lcg state land 0xFFFF) i
  done;
  let acc = ref 0 and p = ref 0 and recent = ref [] in
  for step = 1 to events do
    let t, i = pop () in
    push (t + 1 + (lcg state land 0xFF)) i;
    p := chase.(!p);
    acc := !acc + !p;
    Hashtbl.replace table (i land 0x3FFF) (t, step);
    (match Hashtbl.find_opt table ((i * 7) land 0x3FFF) with
    | Some (a, _) -> acc := !acc + a
    | None -> ());
    recent := (t, i) :: !recent;
    if step land 1023 = 0 then recent := []
  done;
  !acc

(* One run of the kernel, in host seconds. *)
let seconds ~events =
  let t0 = Probe.now () in
  ignore (Sys.opaque_identity (kernel ~events));
  Probe.now () -. t0

(* The set-up kernel's median time on the machine the bounds were set
   on, so a reference second of set-up is about a host second there. *)
let setup_reference_s = 0.01

(* 16 blocks of 256 KB, filled as they are made, and 50,000 small
   records in a hash table: a set-up's large and small allocations. The
   ledger runs it in the set-up process, in the same state of the heap
   as the set-up it calibrates. *)
let setup_kernel () =
  let blocks = List.init 16 (fun i -> Array.make 32_768 i) in
  let table = Hashtbl.create 16 in
  for i = 0 to 49_999 do
    Hashtbl.replace table i (i, i)
  done;
  (blocks, table)

let setup_seconds () =
  let t0 = Probe.now () in
  ignore (Sys.opaque_identity (setup_kernel ()));
  Probe.now () -. t0
