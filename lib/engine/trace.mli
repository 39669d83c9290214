(** Low-overhead event tracer: a fixed-capacity ring buffer of
    (virtual-timestamp, event) pairs.

    Disabled by default. Call sites must guard event construction:

    {[ if Trace.enabled tr then Trace.record tr ~now (Ev ...) ]}

    so that tracing costs a single boolean read — and zero allocation —
    when off. When the ring is full, the oldest entries are overwritten
    (and counted in {!dropped}): a trace always holds the most recent
    window of activity. *)

type 'a t

(** {2 Flat encoding}

    The ring keeps no boxed event: a codec writes each event as flat
    columns of one ring slot and reads it back from them. Only the
    readers ({!iter}, {!to_list}) decode. *)

(** One ring slot being written or read. Fields are read back in the
    order they were put. *)
type cursor

val put_int : cursor -> int -> unit

val put_float : cursor -> float -> unit

(** Interned in a per-ring table: one int column. *)
val put_str : cursor -> string -> unit

(** Stored in a side ring of ints: two int columns (start, length). *)
val put_ints : cursor -> int list -> unit

val get_int : cursor -> int

val get_float : cursor -> float

val get_str : cursor -> string

val get_ints : cursor -> int list

(** [int_columns] and [float_columns] bound the columns one event
    takes (a string one int column, an int list two). [encode] puts an
    event's fields; [decode] gets them back in the same order and
    rebuilds the event. *)
type 'a codec = {
  int_columns : int;
  float_columns : int;
  encode : cursor -> 'a -> unit;
  decode : cursor -> 'a;
}

(** [create ?capacity ~codec ()] — capacity defaults to 65536 events.
    The flat columns are allocated on the first {!record}. *)
val create : ?capacity:int -> codec:'a codec -> unit -> 'a t

val enabled : 'a t -> bool

val enable : 'a t -> unit

val capacity : 'a t -> int

(** Events currently held (<= capacity). *)
val length : 'a t -> int

(** Events overwritten because the ring was full. *)
val dropped : 'a t -> int

(** Drop all recorded events (and their references). *)
val clear : 'a t -> unit

(** [record t ~now ev] appends an event stamped [now]. No-op when
    disabled — but guard with {!enabled} to avoid constructing [ev]. *)
val record : 'a t -> now:float -> 'a -> unit

(** [set_sink t (Some f)] installs a tap called with every recorded
    event (before it enters the ring). Unlike the ring, the sink never
    drops events: history checkers and streaming log writers use it to
    observe the complete run even when the ring wraps. [None]
    uninstalls. Recording still requires {!enabled}. *)
val set_sink : 'a t -> (float -> 'a -> unit) option -> unit

(** [fanout f g] is a sink that feeds every event to [f] then [g]:
    the single sink slot shared between e.g. a streaming checker and
    a history-log writer. *)
val fanout :
  (float -> 'a -> unit) -> (float -> 'a -> unit) -> float -> 'a -> unit

(** Second, independent tap with the same contract as {!set_sink},
    called after it. The checker stack owns the sink (and replaces it
    freely); the flight recorder counts events through the tap, so
    neither disturbs the other. *)
val set_tap : 'a t -> (float -> 'a -> unit) option -> unit

(** Oldest-first iteration over (timestamp, event); each event is
    decoded afresh from the ring. *)
val iter : 'a t -> (float -> 'a -> unit) -> unit

val to_list : 'a t -> (float * 'a) list
