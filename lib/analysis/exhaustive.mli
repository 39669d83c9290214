(** Semantic exporter-exhaustiveness: every [Event.t] constructor must
    be dispatched, by name, in each checked file (the event description
    table, whose [describe] every exporter goes through) — and no
    dispatch may hide behind a catch-all case.

    Replaces the whole-word-mention heuristic of the regex scanner: a
    constructor "mentioned" in a comment no longer counts, an
    or-pattern counts once per alternative, and a wildcard arm is now
    itself a finding ([exporter-wildcard]) because it is how a new
    event silently vanishes from an output format.

    A match participates when any of its case patterns has an Event
    constructor in head position (payload-nested constructors do not
    drag unrelated option/pair matches into the rule). *)

(** Constructor names of [Event.t] parsed from the event interface;
    [Error] if the anchor is missing or suspiciously small. *)
val event_constructors : Ast_io.ast -> (string list, string) result

(** [exporter-exhaustive] (one per missing constructor, symbol = the
    constructor) and [exporter-wildcard] findings for one exporter. *)
val check_file :
  file:string -> ctors:string list -> Ast_io.ast -> Finding.t list
