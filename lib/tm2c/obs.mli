(** Abort-causality accounting: who aborted whom, on which address,
    under which conflict type. Always on (updated only on aborts). *)

type key = {
  winner : Types.core_id;  (** the transaction whose CM priority prevailed *)
  victim : Types.core_id;  (** the transaction told or forced to abort *)
  conflict : Types.conflict;
}

type t

val create : unit -> t

val record :
  t ->
  winner:Types.core_id ->
  victim:Types.core_id ->
  conflict:Types.conflict ->
  addr:Types.addr ->
  unit

(** (key, count, last sample address), most frequent first. *)
val dump : t -> (key * int * Types.addr) list

(** Totals per conflict type (RAW, WAW, WAR — in that order). *)
val by_conflict : t -> (Types.conflict * int) list

val total : t -> int
