(* splitmix64 (Steele, Lea, Flood 2014), truncated to OCaml's 63-bit
   native ints. Good statistical quality for simulation workloads and
   trivially splittable. *)

type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create ~seed = { state = mix (Int64.of_int seed) }

let next64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let split t =
  let seed = next64 t in
  { state = mix seed }

(* FNV-1a over the label, folded into the parent's *current* state.
   The parent is not advanced: a labelled child can be added (e.g. the
   fault stream) without perturbing any stream later forked from [t]
   via [split]. *)
let split_label t ~label =
  let h =
    String.fold_left
      (fun acc c ->
        Int64.mul (Int64.logxor acc (Int64.of_int (Char.code c))) 0x100000001B3L)
      0xCBF29CE484222325L label
  in
  { state = mix (Int64.logxor (mix t.state) (Int64.add h golden_gamma)) }

let next t = Int64.to_int (next64 t) land max_int

(* Rejection sampling: [next] is uniform on [0, max_int], and plain
   [next t mod bound] over-weights small residues whenever [bound]
   does not divide max_int + 1. Discard draws above the largest
   multiple of [bound]; acceptance probability is always > 1/2. *)
let int t bound =
  assert (bound > 0);
  let rem = ((max_int mod bound) + 1) mod bound in
  let limit = max_int - rem in
  let rec go () =
    let v = next t in
    if v > limit then go () else v mod bound
  in
  go ()

let float t =
  (* 53 random bits into the mantissa. *)
  let bits = Int64.to_int (Int64.shift_right_logical (next64 t) 11) in
  float_of_int bits *. (1.0 /. 9007199254740992.0)

let bool t = Int64.logand (next64 t) 1L = 1L
