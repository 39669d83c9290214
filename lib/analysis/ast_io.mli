(** Parsing project sources into compiler-libs parse trees.

    The lexer discards comments and the parser sees string literals as
    opaque constants, so every rule built on these trees is immune to
    the comment/string false positives of the regex scanner this
    analyzer replaced. *)

type ast = Impl of Parsetree.structure | Intf of Parsetree.signature

exception Syntax_error of { file : string; line : int; message : string }

(** Parse a [.ml] (implementation) or [.mli] (interface) file, chosen
    by suffix. Raises {!Syntax_error} on unparseable input — the
    driver turns that into a finding rather than a crash. *)
val parse_file : string -> ast

val line_of : Location.t -> int
