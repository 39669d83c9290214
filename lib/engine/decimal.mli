(** Decimal integer text written straight into a buffer, with no
    format interpreted and no intermediate string: the one integer
    writer of the history log and the JSON printer. *)

(** [add_int buf n] appends the bytes of [string_of_int n]. *)
val add_int : Buffer.t -> int -> unit
