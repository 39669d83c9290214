(* Fixed-capacity ring buffer of (virtual-timestamp, event) pairs.

   The tracer is disabled by default and costs one mutable-field read
   on the hot path: call sites must guard event construction with
   [if Trace.enabled t then Trace.record ...] so that a disabled trace
   allocates nothing. When enabled, the newest events win: once the
   ring is full the oldest entry is overwritten and counted in
   [dropped]. Timestamps are supplied by the caller (virtual time),
   keeping this module independent of any particular clock.

   The ring holds no boxed event. A codec writes each event's fields
   into flat per-slot columns (ints and floats), strings go through a
   per-ring intern table and int lists into a side ring of ints; only
   the readers ([iter]) decode. A long-lived array of boxed events
   would promote every traced event and pay the write barrier twice
   per slot (store, and the deletion barrier when it is overwritten
   during marking); flat columns of immediates pay neither, and the
   boxed event the sink and tap see dies young. *)

(* The flat store, seen through a cursor on one slot. Slot [i] owns
   int columns [i * iw, (i + 1) * iw): column 0 is the side ring's head
   when the slot was written (its "mark"), the rest are the codec's;
   and float columns [i * fw, (i + 1) * fw). *)
type cursor = {
  iw : int;
  fw : int;
  mutable ints : int array;  (* [||] until the first record *)
  mutable floats : float array;
  mutable ip : int;  (* next int column of the current slot *)
  mutable fp : int;  (* next float column *)
  (* Side ring of list elements, addressed by absolute position (the
     count of elements ever written) masked by its power-of-two
     length. It grows rather than overwrite an element a live slot
     still reads: [oldest] is the oldest live slot while a record
     encodes, and its mark bounds the live elements from below. *)
  mutable aux : int array;
  mutable aux_head : int;
  mutable oldest : int;
  mutable strs : string array;  (* intern table: id -> string *)
  mutable n_strs : int;
}

type 'a codec = {
  int_columns : int;
  float_columns : int;
  encode : cursor -> 'a -> unit;
  decode : cursor -> 'a;
}

type 'a t = {
  capacity : int;
  mutable enabled : bool;
  times : float array;
  codec : 'a codec;
  cur : cursor;
  mutable head : int;  (* next write position *)
  mutable len : int;  (* live entries, <= capacity *)
  mutable dropped : int;
  (* Optional tap fed every recorded event before it enters the ring:
     unlike the ring it never drops, so a history checker or streaming
     log sees the complete run even when the ring wraps. *)
  mutable sink : (float -> 'a -> unit) option;
  (* Second, independent tap with the same contract: the flight
     recorder counts events here without disturbing whatever checker
     owns [sink] (Collector.attach/detach overwrite it freely). *)
  mutable tap : (float -> 'a -> unit) option;
}

let put_int c v =
  c.ints.(c.ip) <- v;
  c.ip <- c.ip + 1

let get_int c =
  let v = c.ints.(c.ip) in
  c.ip <- c.ip + 1;
  v

let put_float c v =
  c.floats.(c.fp) <- v;
  c.fp <- c.fp + 1

let get_float c =
  let v = c.floats.(c.fp) in
  c.fp <- c.fp + 1;
  v

let rec find_str c s i =
  if i = c.n_strs then -1 else if String.equal c.strs.(i) s then i else find_str c s (i + 1)

(* Labels come from small fixed sets, so a scan of the table (whose
   first test is physical equality) beats hashing the string. *)
let put_str c s =
  let id = find_str c s 0 in
  if id >= 0 then put_int c id
  else begin
    if c.n_strs = Array.length c.strs then begin
      let strs = Array.make (max 8 (2 * c.n_strs)) "" in
      Array.blit c.strs 0 strs 0 c.n_strs;
      c.strs <- strs
    end;
    c.strs.(c.n_strs) <- s;
    c.n_strs <- c.n_strs + 1;
    put_int c (c.n_strs - 1)
  end

let get_str c = c.strs.(get_int c)

(* Room for [n] more side-ring elements without overwriting one that
   a live slot reads: grow to the next power of two that holds every
   element from the oldest live mark on, keeping their positions. *)
let reserve c n =
  let lo = c.ints.(c.oldest * c.iw) in
  let need = c.aux_head + n - lo in
  let len = Array.length c.aux in
  if need > len then begin
    let rec fit l = if l >= need then l else fit (2 * l) in
    let len' = fit (max 16 (2 * len)) in
    let aux = Array.make len' 0 in
    for p = lo to c.aux_head - 1 do
      aux.(p land (len' - 1)) <- c.aux.(p land (len - 1))
    done;
    c.aux <- aux
  end

let rec put_elems aux mask p = function
  | [] -> ()
  | x :: xs ->
      aux.(p land mask) <- x;
      put_elems aux mask (p + 1) xs

let put_ints c l =
  let n = List.length l in
  reserve c n;
  let start = c.aux_head in
  put_elems c.aux (Array.length c.aux - 1) start l;
  c.aux_head <- start + n;
  put_int c start;
  put_int c n

let get_ints c =
  let start = get_int c in
  let n = get_int c in
  let mask = Array.length c.aux - 1 in
  let rec build p acc = if p < start then acc else build (p - 1) (c.aux.(p land mask) :: acc) in
  build (start + n - 1) []

let create ?(capacity = 65_536) ~codec () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  {
    capacity;
    enabled = false;
    times = Array.make capacity 0.0;
    codec;
    cur =
      {
        iw = 1 + codec.int_columns;
        fw = codec.float_columns;
        ints = [||];
        floats = [||];
        ip = 0;
        fp = 0;
        aux = [||];
        aux_head = 0;
        oldest = 0;
        strs = [||];
        n_strs = 0;
      };
    head = 0;
    len = 0;
    dropped = 0;
    sink = None;
    tap = None;
  }

let enabled t = t.enabled

let enable t = t.enabled <- true

let capacity t = t.capacity

let length t = t.len

let dropped t = t.dropped

let clear t =
  t.head <- 0;
  t.len <- 0;
  t.dropped <- 0;
  (* Release the columns and the tables so a cleared trace retains
     nothing. *)
  let c = t.cur in
  c.ints <- [||];
  c.floats <- [||];
  c.aux <- [||];
  c.aux_head <- 0;
  c.strs <- [||];
  c.n_strs <- 0

let set_sink t sink = t.sink <- sink

(* Compose two sink-shaped consumers into one, so e.g. a streaming
   checker and a history-log writer can share the single sink slot. *)
let fanout f g now ev =
  f now ev;
  g now ev

let set_tap t tap = t.tap <- tap

let record t ~now ev =
  if t.enabled then begin
    (match t.sink with Some f -> f now ev | None -> ());
    (match t.tap with Some f -> f now ev | None -> ());
    let c = t.cur in
    (* The columns are made on the first record, so an untraced run
       never pays for them. *)
    if Array.length c.ints = 0 then begin
      c.ints <- Array.make (t.capacity * c.iw) 0;
      c.floats <- Array.create_float (t.capacity * c.fw)
    end;
    let slot = t.head in
    t.times.(slot) <- now;
    c.ints.(slot * c.iw) <- c.aux_head;
    (* Oldest slot still live once this one is written. *)
    c.oldest <-
      (if t.len < t.capacity then if slot >= t.len then slot - t.len else slot - t.len + t.capacity
       else if slot + 1 = t.capacity then 0
       else slot + 1);
    c.ip <- (slot * c.iw) + 1;
    c.fp <- slot * c.fw;
    t.codec.encode c ev;
    t.head <- (if slot + 1 = t.capacity then 0 else slot + 1);
    if t.len < t.capacity then t.len <- t.len + 1 else t.dropped <- t.dropped + 1
  end

(* Oldest-first iteration: each slot is decoded before [f] sees it. *)
let iter t f =
  let c = t.cur in
  let start = (t.head - t.len + t.capacity) mod t.capacity in
  for k = 0 to t.len - 1 do
    let i = (start + k) mod t.capacity in
    c.ip <- (i * c.iw) + 1;
    c.fp <- i * c.fw;
    let ev = t.codec.decode c in
    f t.times.(i) ev
  done

let to_list t =
  let acc = ref [] in
  iter t (fun ts ev -> acc := (ts, ev) :: !acc);
  List.rev !acc
