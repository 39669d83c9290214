(** Machine-readable history log.

    One event per line: [<timestamp> <TAG> <fields...>], space
    separated, with timestamps and durations in hex-float notation so
    virtual times round-trip exactly. Written by [tm2c-sim --history]
    and replayed by [tm2c-check]. The first line is the version
    header ([# tm2c-history v5]); readers refuse every other version.
    Each record's tag and columns come from the event description
    table ([Event.describe]); a malformed field — including a
    non-finite number or an unknown conflict or shed-reason label —
    fails with its line number. The writer prints every number
    itself, byte for byte as [string_of_int] and Printf's ["%h"]
    would, and refuses a non-finite float, so it never writes a line
    the reader rejects.

    Logs end with an ["# events N"] footer: the streaming writer
    stamps it on close, and readers verify it when present, so a
    truncated log fails loudly instead of being checked short. A run
    that armed wedge detection writes a ["# stuck-after-ns T"] line
    (T in hex-float notation) just before the footer, and
    {!iter_file} returns T, so a replay arms the liveness monitor the
    way the run did; a log the run did not arm carries no such line.
    Both directions are streaming — the writer takes events one at a
    time (e.g. straight off the trace sink) and {!iter_file} parses
    line by line without holding the log in memory. *)

open Tm2c_core

val header : string

(** Incremental writer: {!create_writer}/{!writer_of_channel} emit
    the header, {!put} appends one event line, {!close_writer} stamps
    the count footer (and closes the channel iff the writer opened
    it). *)
type writer

val writer_of_channel : out_channel -> writer

val create_writer : string -> writer

(** Raises [Invalid_argument] naming the record's tag and the field
    when the timestamp or a float field is NaN or infinite. *)
val put : writer -> float -> Event.t -> unit

(** Events appended so far. *)
val written : writer -> int

(** [stuck_after_ns] writes the armed wedge threshold before the
    footer. *)
val close_writer : ?stuck_after_ns:float -> writer -> unit

(** Header, one line per driven event, footer. *)
val write : out_channel -> ((float -> Event.t -> unit) -> unit) -> unit

val save : string -> ((float -> Event.t -> unit) -> unit) -> unit

(** Parse a log file, calling [f] per event in order; returns the
    wedge threshold the run armed, [None] when the log carries none.
    Raises [Failure] with the offending line number on malformed
    input (a malformed threshold too) or a footer/count mismatch.
    Blank lines and other [#] comments are skipped. *)
val iter_file : string -> (float -> Event.t -> unit) -> float option

(** Batch form of {!iter_file}: the events, and the armed threshold. *)
val load : string -> (float * Event.t) list * float option
