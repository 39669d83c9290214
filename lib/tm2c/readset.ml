(* An open-addressing table (linear probing, capacity a power of two,
   at most half full) from address to value, beside a log of the
   addresses in the order they were added. Slots carry the generation
   that wrote them: a slot is live iff its stamp is [gen], removed iff
   it is [-gen], and empty otherwise, so [clear] only bumps [gen]. A
   removed slot keeps its key, so probing runs past it and a later
   [add] of the same address reuses it. A removed address is -1 in
   the log. *)

type t = {
  mutable keys : int array;
  mutable vals : int array;
  mutable gens : int array;
  mutable used : int;  (* slots live or removed in this generation *)
  mutable gen : int;  (* >= 1 *)
  mutable log : int array;
  mutable n : int;  (* log length *)
}

(* Sized for a hash-table or bank transaction; a linked-list scan
   grows it once and keeps the size for later attempts. *)
let create () =
  {
    keys = Array.make 16 0;
    vals = Array.make 16 0;
    gens = Array.make 16 0;
    used = 0;
    gen = 1;
    log = Array.make 8 0;
    n = 0;
  }

let clear t =
  t.gen <- t.gen + 1;
  t.used <- 0;
  t.n <- 0

let hash addr =
  let h = addr * 0x9E3779B1 in
  h lxor (h lsr 17)

(* Slot holding [addr] (live or removed), or the empty slot where it
   would go. The loops here are top-level functions, not local
   closures, so that a lookup allocates nothing. *)
let rec probe t addr mask i =
  let g = t.gens.(i) in
  if (g = t.gen || g = -t.gen) && t.keys.(i) <> addr then
    probe t addr mask ((i + 1) land mask)
  else i

let locate t addr =
  let mask = Array.length t.keys - 1 in
  probe t addr mask (hash addr land mask)

let find_opt t addr =
  let i = locate t addr in
  if t.gens.(i) = t.gen then Some t.vals.(i) else None

let put t addr v =
  let i = locate t addr in
  if t.gens.(i) <> -t.gen then t.used <- t.used + 1;
  t.keys.(i) <- addr;
  t.vals.(i) <- v;
  t.gens.(i) <- t.gen

(* Double the table, keeping the live entries only. *)
let grow t =
  let keys = t.keys and vals = t.vals and gens = t.gens and gen = t.gen in
  let cap = 2 * Array.length keys in
  t.keys <- Array.make cap 0;
  t.vals <- Array.make cap 0;
  t.gens <- Array.make cap 0;
  t.used <- 0;
  Array.iteri (fun i g -> if g = gen then put t keys.(i) vals.(i)) gens

let add t addr v =
  if 2 * (t.used + 1) > Array.length t.keys then grow t;
  put t addr v;
  if t.n = Array.length t.log then begin
    let log = Array.make (2 * t.n) 0 in
    Array.blit t.log 0 log 0 t.n;
    t.log <- log
  end;
  t.log.(t.n) <- addr;
  t.n <- t.n + 1

let rec unlog t addr j =
  if j >= 0 then if t.log.(j) = addr then t.log.(j) <- -1 else unlog t addr (j - 1)

let remove t addr =
  let i = locate t addr in
  if t.gens.(i) = t.gen then begin
    t.gens.(i) <- -t.gen;
    unlog t addr (t.n - 1)
  end

let rec fold_from f acc t j =
  if j < 0 then acc
  else
    let a = t.log.(j) in
    fold_from f (if a >= 0 then f acc a else acc) t (j - 1)

let fold_newest f acc t = fold_from f acc t (t.n - 1)
