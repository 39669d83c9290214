(* Calendar-queue event set: a window of fixed-width time buckets over
   the near future, with a binary-heap overflow tier for everything
   past the window (see DESIGN.md, "Engine").

   Buckets are small *unsorted* vectors held in parallel flat arrays
   (float priorities, int sequence numbers, int payloads): a push is
   an append, and a pop linearly scans the current bucket for the
   lexicographic (priority, seq) minimum. With ~64 ns buckets the scan
   is a handful of flat-array compares — cheaper than sifting a heap —
   and the minimum is unique because sequence numbers are, so storage
   order never matters. Payloads are ints (the simulator codes every
   event as one), so no store into a bucket is a pointer store and
   none pays the GC write barrier; a vacated slot retains nothing.

   Every entry carries a globally increasing sequence number assigned
   here, so the pop order is the exact lexicographic (priority,
   push-order) order of the reference {!Heap} — the wheel changes only
   *where* an entry waits, never *when* it comes out. The simulator
   guarantees pushes are never earlier than the last popped priority
   (the clock is monotonic), which is what makes bucket-order scanning
   exact:

   - [cur] is the global bucket number currently being drained; every
     live entry sits in a bucket >= [cur], and a bucket b > [cur] holds
     only entries whose natural bucket is b. A push whose natural
     bucket is behind [cur] is clamped into bucket [cur]. The bucket
     map only needs to be monotone in the priority for the scan order
     to be exact, so boundary rounding in the float multiply is
     harmless.
   - the window spans [win_start, win_start + n_buckets) bucket numbers
     (n_buckets a power of two; slot = bucket land (n_buckets - 1), so
     in-window buckets never alias). Entries at or past the window end
     go to the overflow heap, whose minimum priority therefore always
     exceeds every bucket entry's — the boundary map is monotone, so
     FIFO tie-breaking can never straddle it.
   - when the wheel side drains, the window jumps to the overflow
     minimum's bucket and every overflow entry now inside the window
     migrates into its bucket, carrying its original sequence number
     ([Heap.push_seq]); buckets are unsorted, so the migration order is
     irrelevant to the pop order. *)

type t = {
  n_buckets : int; (* power of two *)
  mask : int;
  inv_width : float; (* 1 / bucket width; width in ns *)
  b_prio : float array array; (* per-slot parallel vectors *)
  b_seq : int array array;
  b_vals : int array array;
  b_len : int array;
  overflow : int Heap.t;
  mutable win_start : int; (* global bucket number of window start *)
  mutable cur : int; (* current scan position, >= win_start *)
  mutable size : int;
  mutable next_seq : int;
  cmin : float array; (* flat cell: exact global min priority, valid when [cok] *)
  mutable cok : bool;
}

let default_buckets = 4096

let default_width = 64.0

let create ?(n_buckets = default_buckets) ?(width_ns = default_width) () =
  if n_buckets < 2 || n_buckets land (n_buckets - 1) <> 0 then
    invalid_arg "Wheel.create: n_buckets must be a power of two >= 2";
  if not (width_ns > 0.0) then
    invalid_arg "Wheel.create: width_ns must be positive";
  {
    n_buckets;
    mask = n_buckets - 1;
    inv_width = 1.0 /. width_ns;
    b_prio = Array.make n_buckets [||];
    b_seq = Array.make n_buckets [||];
    b_vals = Array.make n_buckets [||];
    b_len = Array.make n_buckets 0;
    overflow = Heap.create ();
    win_start = 0;
    cur = 0;
    size = 0;
    next_seq = 0;
    cmin = [| infinity |];
    cok = true;
  }

let length w = w.size

let is_empty w = w.size = 0

(* Global bucket number of a priority. Priorities are simulation times
   and therefore non-negative and finite; only monotonicity matters. *)
let bucket_of w p = int_of_float (p *. w.inv_width)

let append w s p seq v =
  let len = w.b_len.(s) in
  if len = Array.length w.b_prio.(s) then begin
    let cap = if len = 0 then 8 else 2 * len in
    let bp = Array.make cap 0.0 in
    Array.blit w.b_prio.(s) 0 bp 0 len;
    w.b_prio.(s) <- bp;
    let bs = Array.make cap 0 in
    Array.blit w.b_seq.(s) 0 bs 0 len;
    w.b_seq.(s) <- bs;
    let bv = Array.make cap 0 in
    Array.blit w.b_vals.(s) 0 bv 0 len;
    w.b_vals.(s) <- bv
  end;
  w.b_prio.(s).(len) <- p;
  w.b_seq.(s).(len) <- seq;
  w.b_vals.(s).(len) <- v;
  w.b_len.(s) <- len + 1

let push w p v =
  let seq = w.next_seq in
  w.next_seq <- seq + 1;
  w.size <- w.size + 1;
  (* A stale cache stays stale: the unknown minimum may be below [p]. *)
  if w.cok && p < w.cmin.(0) then w.cmin.(0) <- p;
  let q = bucket_of w p in
  if q >= w.win_start + w.n_buckets then Heap.push_seq w.overflow p seq v
  else
    let q = if q < w.cur then w.cur else q in
    append w (q land w.mask) p seq v

(* Advance [cur] to the first non-empty bucket in the window; on wheel
   exhaustion, jump the window to the overflow minimum and migrate the
   overflow entries that now fall inside it. Afterwards, if the wheel
   is non-empty, the global minimum lives in bucket [cur]. *)
let normalize w =
  let win_end = w.win_start + w.n_buckets in
  while w.cur < win_end && w.b_len.(w.cur land w.mask) = 0 do
    w.cur <- w.cur + 1
  done;
  if w.cur >= win_end && not (Heap.is_empty w.overflow) then begin
    let q_min = bucket_of w (Heap.min_prio w.overflow) in
    w.win_start <- q_min;
    w.cur <- q_min;
    let new_end = q_min + w.n_buckets in
    while
      (not (Heap.is_empty w.overflow))
      && bucket_of w (Heap.min_prio w.overflow) < new_end
    do
      let p = Heap.min_prio w.overflow in
      let s = Heap.min_seq w.overflow in
      let v = Heap.take w.overflow in
      append w (bucket_of w p land w.mask) p s v
    done
  end

(* Index of the (priority, seq)-least entry of non-empty bucket [s]. *)
let scan_min w s =
  let bp = w.b_prio.(s) and bs = w.b_seq.(s) in
  let best = ref 0 in
  for i = 1 to w.b_len.(s) - 1 do
    if
      bp.(i) < bp.(!best)
      || (bp.(i) = bp.(!best) && bs.(i) < bs.(!best))
    then best := i
  done;
  !best

let remove w s i =
  let last = w.b_len.(s) - 1 in
  w.b_len.(s) <- last;
  let v = w.b_vals.(s).(i) in
  if i < last then begin
    w.b_prio.(s).(i) <- w.b_prio.(s).(last);
    w.b_seq.(s).(i) <- w.b_seq.(s).(last);
    w.b_vals.(s).(i) <- w.b_vals.(s).(last)
  end;
  w.size <- w.size - 1;
  v

(* Recompute the cached minimum by scanning bucket [cur]; after
   [normalize], every bucket-[cur] entry is strictly below every entry
   anywhere else (monotone bucket map), so the bucket minimum is the
   global minimum. Requires a non-empty wheel. *)
let refresh w =
  normalize w;
  let s = w.cur land w.mask in
  w.cmin.(0) <- w.b_prio.(s).(scan_min w s);
  w.cok <- true

let min_prio w =
  if w.size = 0 then infinity
  else begin
    if not w.cok then refresh w;
    w.cmin.(0)
  end

(* [min_gt w x] is true when the wheel is empty or its minimum priority
   is strictly greater than [x] — the scheduler's hand-off test.
   O(1) whenever the cached minimum is valid. *)
let min_gt w x =
  if w.size = 0 then true
  else begin
    if not w.cok then refresh w;
    w.cmin.(0) > x
  end

(* The hot-path pop, folding the horizon test, the min scan and the
   cache refresh into one pass:
   - empty wheel: [scratch.(0) <- infinity], returns [-1];
   - minimum past [limit]: [scratch.(0) <- min], entry stays queued,
     returns [-1];
   - otherwise: [scratch.(0) <- min], returns the entry's payload.
   The scan tracks the runner-up priority alongside the minimum, so
   popping usually leaves a valid cached minimum behind for free. The
   priority comes back through the caller's flat [scratch] cell rather
   than a return value so nothing is boxed. *)
let take_below w limit scratch =
  if w.size = 0 then begin
    scratch.(0) <- infinity;
    -1
  end
  else if w.cok && w.cmin.(0) > limit then begin
    scratch.(0) <- w.cmin.(0);
    -1
  end
  else begin
    normalize w;
    let s = w.cur land w.mask in
    let bp = w.b_prio.(s) and bs = w.b_seq.(s) in
    let len = w.b_len.(s) in
    let best = ref 0 and second = ref infinity in
    for i = 1 to len - 1 do
      let pi = bp.(i) in
      let pb = bp.(!best) in
      if pi < pb || (pi = pb && bs.(i) < bs.(!best)) then begin
        second := pb;
        best := i
      end
      else if pi < !second then second := pi
    done;
    let p = bp.(!best) in
    scratch.(0) <- p;
    if p > limit then begin
      w.cmin.(0) <- p;
      w.cok <- true;
      -1
    end
    else begin
      let v = remove w s !best in
      if w.b_len.(s) > 0 then begin
        (* Bucket [cur] still non-empty: its minimum is global. *)
        w.cmin.(0) <- !second;
        w.cok <- true
      end
      else if w.size = 0 then begin
        w.cmin.(0) <- infinity;
        w.cok <- true
      end
      else w.cok <- false;
      v
    end
  end

let take w =
  if w.size = 0 then invalid_arg "Wheel.take: empty wheel";
  normalize w;
  let s = w.cur land w.mask in
  let v = remove w s (scan_min w s) in
  if w.size = 0 then begin
    w.cmin.(0) <- infinity;
    w.cok <- true
  end
  else w.cok <- false;
  v

let pop_min w =
  if w.size = 0 then None
  else begin
    let p = min_prio w in
    let v = take w in
    Some (p, v)
  end
