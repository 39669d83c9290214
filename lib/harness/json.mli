(** Dependency-free JSON used by the experiment exporter.

    The printer maps non-finite floats to [null] (JSON has no [nan] —
    a zero-commit window's commit rate must not corrupt the file); the
    parser exists so tests can round-trip exported results and the
    smoke target can validate its output. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Seq of t Seq.t
      (** A deferred list: printed exactly like [List], each item made
          only when the printer reaches it, so a large array (a
          Perfetto timeline) is never a whole tree. The parser never
          produces it. The sequence may be traversed more than once. *)
  | Obj of (string * t) list

(** Render; [indent] (default true) pretty-prints with 2-space
    indentation and a trailing newline. *)
val to_string : ?indent:bool -> t -> string

(** [to_file ?indent path v] writes the bytes of [to_string ?indent v]
    to [path], one 64 KiB piece at a time: the whole text is never in
    memory. *)
val to_file : ?indent:bool -> string -> t -> unit

exception Parse_error of string

(** Parse a complete JSON document. Raises {!Parse_error}. *)
val of_string : string -> t

val of_file : string -> t

(** Field lookup on [Obj]; [None] on other constructors. *)
val member : string -> t -> t option

(** Nested field lookup: [path ["a"; "b"] v] is [v.a.b]. *)
val path : string list -> t -> t option

(** The items of a [List] or a [Seq]; [Invalid_argument] otherwise. *)
val to_list_exn : t -> t list

val to_int_opt : t -> int option

(** Accepts both [Int] and [Float]. *)
val to_float_opt : t -> float option

val to_string_opt : t -> string option
