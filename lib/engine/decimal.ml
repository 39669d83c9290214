(* Decimal digits of a non-positive [m], most significant first
   (OCaml's [mod] keeps the sign of the dividend). *)
let rec add_digits buf m =
  if m <= -10 then add_digits buf (m / 10);
  Buffer.add_char buf (Char.chr (48 - (m mod 10)))

(* The digits come from the non-positive value, so [min_int] needs no
   special case. *)
let add_int buf n =
  if n < 0 then begin
    Buffer.add_char buf '-';
    add_digits buf n
  end
  else add_digits buf (-n)
