(** Driver: walk the configured roots, run every rule family, apply
    waivers, detect stale waivers, and assemble the report plus the
    domain-safety inventory. *)

type config = {
  roots : string list;  (** directories to walk for [.ml]/[.mli] *)
  det_prefixes : string list;
      (** paths under determinism discipline (default [lib/]) *)
  recv_prefixes : string list;
      (** paths under the untimed-recv rule (default [lib/tm2c/]) *)
  mli_required : string list;  (** dirs where every [.ml] needs a [.mli] *)
  exporters : string list;
      (** files whose [Event.t] dispatches must be exhaustive: the
          description table's [describe] *)
  event_mli : string option;  (** the [Event.t] interface anchor *)
  waivers : Waiver.t list;
}

type report = {
  findings : Finding.t list;  (** sorted; waived and stale included *)
  inventory : Mutstate.entry list;
}

(** Roots [lib bench bin], determinism over [lib/], recv rule over
    [lib/tm2c/], the event description table, and the committed
    project waiver table (all justifications reviewed). *)
val default_config : config

val run : config -> report

(** Non-waived findings — the exit-status criterion. *)
val active : report -> Finding.t list

(** Full machine-readable report (findings + summary + inventory). *)
val findings_json : report -> string

(** Inventory-only export (the CI artifact). *)
val inventory_json : report -> string

val write_file : string -> string -> unit
