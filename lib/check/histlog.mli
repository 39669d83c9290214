(** Machine-readable history log.

    One event per line: [<timestamp> <TAG> <fields...>], space
    separated, with timestamps and durations in hex-float notation so
    virtual times round-trip exactly. Written by [tm2c-sim --history]
    and replayed by [tm2c-check]. The first line is the version
    header ([# tm2c-history v5]); readers refuse every other version.
    Each record's tag and columns come from the event description
    table ([Event.describe]); a malformed field — including a
    non-finite number or an unknown conflict or shed-reason label —
    fails with its line number.

    Logs end with an ["# events N"] footer: the streaming writer
    stamps it on close, and readers verify it when present, so a
    truncated log fails loudly instead of being checked short. Both
    directions are streaming — the writer takes events one at a time
    (e.g. straight off the trace sink) and {!iter_file} parses line
    by line without holding the log in memory. *)

open Tm2c_core

val header : string

(** Incremental writer: {!create_writer}/{!writer_of_channel} emit
    the header, {!put} appends one event line, {!close_writer} stamps
    the count footer (and closes the channel iff the writer opened
    it). *)
type writer

val writer_of_channel : out_channel -> writer

val create_writer : string -> writer

val put : writer -> float -> Event.t -> unit

(** Events appended so far. *)
val written : writer -> int

val close_writer : writer -> unit

(** Header, one line per driven event, footer. *)
val write : out_channel -> ((float -> Event.t -> unit) -> unit) -> unit

val save : string -> ((float -> Event.t -> unit) -> unit) -> unit

(** Parse a log, calling [f] per event in order; returns the event
    count. Raises [Failure] with the offending line number on
    malformed input or a footer/count mismatch. Blank lines and other
    [#] comments are skipped. *)
val iter_channel : in_channel -> (float -> Event.t -> unit) -> int

val iter_file : string -> (float -> Event.t -> unit) -> int

(** Batch forms of {!iter_channel}/{!iter_file}. *)
val read : in_channel -> (float * Event.t) list

val load : string -> (float * Event.t) list
