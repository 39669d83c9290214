(* Chrome trace_event ("Perfetto") export of the event-trace ring:
   one timeline track per core (application cores show transaction-
   attempt slices, DTM cores show request-service slices), one instant
   per other event (named and argued from the event description
   table), and flow arrows linking each lock request to the DTM service
   that handled it. The output opens directly in ui.perfetto.dev or
   chrome://tracing.

   Timestamps: the simulator's virtual ns divided by 1e3 — the
   trace_event "ts" unit is microseconds (fractions are fine, both
   viewers keep double precision).

   The ring overwrites oldest-first, so a long traced run may hold
   only the tail of the activity: slices whose begin event was
   overwritten are dropped, and flow arrows are emitted only when both
   the request and its service pickup survived in the ring.

   The document is never built whole. [export] captures what each
   output event needs (a timestamp plus the event or the slice's
   fields, in flat arrays) and returns [traceEvents] as a [Json.Seq]
   that renders one small object at a time as the printer reaches it;
   the object is minor-heap garbage right after. *)

open Tm2c_core
open Tm2c_engine

let pid = 1

let us ns = ns /. 1000.0

(* One flow id per (requester, req_id): req_id is per-core monotone,
   so within one ring window the pair is unique. *)
let flow_id ~requester ~req_id = (req_id * 4096) + requester

let str s = Json.String s

let common ~ph ~ts ~tid rest =
  Json.Obj
    ((("ph", str ph) :: ("ts", Json.Float (us ts)) :: ("pid", Json.Int pid)
      :: ("tid", Json.Int tid) :: rest))

let instant ~ts ~tid ~name ?(args = []) () =
  common ~ph:"i" ~ts ~tid
    (("name", str name) :: ("s", str "t")
    :: (if args = [] then [] else [ ("args", Json.Obj args) ]))

let slice ~ts ~dur ~tid ~name ?(args = []) () =
  common ~ph:"X" ~ts ~tid
    (("name", str name) :: ("dur", Json.Float (us dur))
    :: (if args = [] then [] else [ ("args", Json.Obj args) ]))

let flow ~ph ~ts ~tid ~id =
  common ~ph ~ts ~tid
    (("name", str "lock-req") :: ("cat", str "lock") :: ("id", Json.Int id)
    :: (if ph = "f" then [ ("bp", str "e") ] else []))

let thread_meta ~tid ~name =
  Json.Obj
    [
      ("ph", str "M");
      ("pid", Json.Int pid);
      ("tid", Json.Int tid);
      ("name", str "thread_name");
      ("args", Json.Obj [ ("name", str name) ]);
    ]

let json_of_value (v : Event.value) =
  match v with
  | Int n -> Json.Int n
  | Float x -> Json.Float x
  | Bool b -> Json.Bool b
  | Str s -> str s
  | Ints l -> Json.List (List.map (fun n -> Json.Int n) l)

(* One output event, captured by [export] and rendered to a
   small [Json.t] only when the printer reaches it. Its sort timestamp
   is kept apart, in a flat float array. *)
type item =
  | Instant of { tid : int; ev : Event.t }
  | Flow of { ph : string; tid : int; id : int }
  | Attempt of { tid : int; dur : float; name : string; attempt : int; cause : string option }
  | Service of {
      tid : int;
      dur : float;
      name : string;
      requester : int;
      req_id : int;
      load : (int * int) option;
    }
      (** [load] is the queue depth and occupancy at pickup; [None] on a
          slice a server crash closed *)

let render ts = function
  | Instant { tid; ev } ->
      let k, vs = Event.describe ev in
      let _, fields = Event.split k vs in
      instant ~ts ~tid ~name:k.Event.name
        ~args:(List.map (fun (n, v) -> (n, json_of_value v)) fields)
        ()
  | Flow { ph; tid; id } -> flow ~ph ~ts ~tid ~id
  | Attempt { tid; dur; name; attempt; cause } ->
      slice ~ts ~dur ~tid ~name
        ~args:
          (("attempt", Json.Int attempt)
          :: Option.fold ~none:[] ~some:(fun c -> [ ("cause", str c) ]) cause)
        ()
  | Service { tid; dur; name; requester; req_id; load } ->
      slice ~ts ~dur ~tid ~name
        ~args:
          (("requester", Json.Int requester) :: ("req_id", Json.Int req_id)
          :: Option.fold ~none:[]
               ~some:(fun (q, o) -> [ ("queue_depth", Json.Int q); ("occupancy", Json.Int o) ])
               load)
        ()

(* The captured items in push order: a growable pair of flat arrays. *)
type items = { mutable ts : float array; mutable items : item array; mutable n : int }

let push t ts item =
  if t.n = Array.length t.ts then begin
    let cap = max 256 (2 * t.n) in
    let ts' = Array.make cap 0.0 and items' = Array.make cap item in
    Array.blit t.ts 0 ts' 0 t.n;
    Array.blit t.items 0 items' 0 t.n;
    t.ts <- ts';
    t.items <- items'
  end;
  t.ts.(t.n) <- ts;
  t.items.(t.n) <- item;
  t.n <- t.n + 1

let export ?(app = [||]) ?(dtm = [||]) trace =
  (* One pass over the ring captures each output event with its sort
     timestamp; attempt and service slices close at their end event
     and sort at their begin timestamp. Both ends of every lock
     request's flow are captured, and [sent] / [picked] note which
     (requester, req_id) pairs survived on the request and the service
     side: only pairs found on both keep their arrows. *)
  let sent = Hashtbl.create 256 and picked = Hashtbl.create 256 in
  let out = { ts = [||]; items = [||]; n = 0 } in
  let tracks = Hashtbl.create 64 in
  let open_attempt : (int, float * int) Hashtbl.t = Hashtbl.create 64 in
  let open_service : (int, float * Event.t) Hashtbl.t = Hashtbl.create 64 in
  (* Close [core]'s open attempt slice; an end event closes only its
     own attempt, a crash whichever is open. *)
  let close_attempt ?attempt ?cause core ts ~name =
    match Hashtbl.find_opt open_attempt core with
    | Some (t0, a0) when Option.fold ~none:true ~some:(Int.equal a0) attempt ->
        Hashtbl.remove open_attempt core;
        push out t0 (Attempt { tid = core; dur = ts -. t0; name; attempt = a0; cause })
    | _ -> ()
  in
  (* Close [server]'s open service slice if [matches] its requester
     and request id; a crash closes it whatever it serves. *)
  let close_service ?(crashed = false) server ts ~matches =
    match Hashtbl.find_opt open_service server with
    | Some (t0, Event.Service { requester; req_id; kind; queue_depth; occupancy; _ })
      when matches requester req_id ->
        Hashtbl.remove open_service server;
        push out t0
          (Service
             {
               tid = server;
               dur = ts -. t0;
               name = (if crashed then kind ^ " (crashed)" else kind);
               requester;
               req_id;
               load = (if crashed then None else Some (queue_depth, occupancy));
             })
    | _ -> ()
  in
  Trace.iter trace (fun ts ev ->
      let k, vs = Event.describe ev in
      let actor, _ = Event.split k vs in
      (* Host-side stores have no actor and so no timeline track. *)
      Option.iter (fun tid -> Hashtbl.replace tracks tid ()) actor;
      match ev with
      | Event.Tx_start { core; attempt; _ } ->
          Hashtbl.replace open_attempt core (ts, attempt)
      | Event.Tx_committed { core; attempt; _ } ->
          close_attempt ~attempt core ts ~name:"tx commit"
      | Event.Tx_aborted { core; attempt; conflict } ->
          close_attempt ~attempt ~cause:(Event.conflict_opt_to_string conflict) core ts
            ~name:"tx abort"
      | Event.Service { server; requester; req_id; _ } ->
          Hashtbl.replace open_service server (ts, ev);
          if req_id > 0 then begin
            let id = flow_id ~requester ~req_id in
            Hashtbl.replace picked id ();
            push out ts (Flow { ph = "f"; tid = server; id })
          end
      | Event.Service_done { server; requester; req_id } ->
          close_service server ts ~matches:(fun r0 i0 -> r0 = requester && i0 = req_id)
      | _ -> (
          (* Every other event is one instant on its actor's track,
             named from the description table, carrying the remaining
             fields as args. *)
          Option.iter (fun tid -> push out ts (Instant { tid; ev })) actor;
          match ev with
          | Event.Req_sent { core; req_id; _ } when req_id > 0 ->
              let id = flow_id ~requester:core ~req_id in
              Hashtbl.replace sent id ();
              push out ts (Flow { ph = "s"; tid = core; id })
          | Event.Core_crashed { core; _ } ->
              (* A crashed core never emits its own end event. *)
              close_attempt core ts ~name:"tx crashed"
          | Event.Server_crashed { server } ->
              (* A crashed server never emits Service_done for the
                 request it was serving; close the slice at the crash
                 instant. *)
              close_service ~crashed:true server ts ~matches:(fun _ _ -> true)
          | _ -> ()));
  (* Stable sort by begin timestamp: per-track timestamps come out
     monotone because same-track slices never overlap. Unpaired flows
     are dropped as the order is walked. *)
  let ts = out.ts and items = out.items in
  let order = Array.init out.n Fun.id in
  Array.stable_sort (fun a b -> Float.compare ts.(a) ts.(b)) order;
  let kept i =
    match items.(i) with
    | Flow { id; _ } -> Hashtbl.mem sent id && Hashtbl.mem picked id
    | Instant _ | Attempt _ | Service _ -> true
  in
  let is_app = Array.to_list app and is_dtm = Array.to_list dtm in
  let role tid =
    if List.mem tid is_dtm then Printf.sprintf "dtm core %d" tid
    else if List.mem tid is_app then Printf.sprintf "app core %d" tid
    else Printf.sprintf "core %d" tid
  in
  let meta =
    Json.Obj
      [
        ("ph", str "M");
        ("pid", Json.Int pid);
        ("name", str "process_name");
        ("args", Json.Obj [ ("name", str "tm2c-sim") ]);
      ]
    :: (Tm2c_engine.Det.keys tracks
       |> List.map (fun tid -> thread_meta ~tid ~name:(role tid)))
  in
  let entries =
    Seq.map (fun i -> render ts.(i) items.(i)) (Seq.filter kept (Array.to_seq order))
  in
  Json.Obj
    [
      ("displayTimeUnit", str "ns");
      ("traceEvents", Json.Seq (Seq.append (List.to_seq meta) entries));
    ]

(* ---- validation ---- *)

(* Structural checker for trace_event JSON as we emit it (and as the
   viewers require it): every event is an object with a "ph"; non-
   metadata events carry numeric ts/pid/tid; "X" durations are
   non-negative; per (pid, tid) the timestamps are non-decreasing in
   file order; and every flow id has exactly one start and one end. *)
let validate v =
  let ( let* ) r f = match r with Error _ as e -> e | Ok x -> f x in
  let* events =
    match Json.member "traceEvents" v with
    | Some (Json.List l) -> Ok (List.to_seq l)
    | Some (Json.Seq s) -> Ok s
    | _ -> Error "traceEvents missing or not a list"
  in
  let last_ts : (int * int, float) Hashtbl.t = Hashtbl.create 64 in
  let flow_s : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let flow_f : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let bump tbl id =
    Hashtbl.replace tbl id (1 + Option.value ~default:0 (Hashtbl.find_opt tbl id))
  in
  let check_one i ev =
    let fail fmt = Printf.ksprintf (fun m -> Error (Printf.sprintf "event %d: %s" i m)) fmt in
    let num k = Option.bind (Json.member k ev) Json.to_float_opt in
    let int_f k = Option.bind (Json.member k ev) Json.to_int_opt in
    match Option.bind (Json.member "ph" ev) Json.to_string_opt with
    | None -> fail "missing ph"
    | Some "M" -> Ok ()
    | Some ph -> (
        match (num "ts", int_f "pid", int_f "tid") with
        | None, _, _ -> fail "missing ts"
        | _, None, _ -> fail "missing pid"
        | _, _, None -> fail "missing tid"
        | Some ts, Some pid, Some tid -> (
            if ts < 0.0 then fail "negative ts"
            else begin
              let key = (pid, tid) in
              match Hashtbl.find_opt last_ts key with
              | Some prev when ts < prev ->
                  fail "timestamps not monotone on track %d (%.3f after %.3f)" tid ts
                    prev
              | _ -> (
                  Hashtbl.replace last_ts key ts;
                  match ph with
                  | "X" -> (
                      match num "dur" with
                      | Some d when d >= 0.0 -> Ok ()
                      | Some _ -> fail "negative dur"
                      | None -> fail "X event without dur")
                  | "s" | "f" -> (
                      match int_f "id" with
                      | Some id ->
                          bump (if ph = "s" then flow_s else flow_f) id;
                          Ok ()
                      | None -> fail "flow event without id")
                  | _ -> Ok ())
            end))
  in
  let rec all i events =
    match events () with
    | Seq.Nil -> Ok ()
    | Seq.Cons (ev, rest) ->
        let* () = check_one i ev in
        all (i + 1) rest
  in
  let* () = all 0 events in
  let* () =
    Tm2c_engine.Det.fold
      (fun id n acc ->
        let* () = acc in
        if Hashtbl.find_opt flow_f id = Some n then Ok ()
        else Error (Printf.sprintf "flow %d: %d start(s) without matching finish" id n))
      flow_s (Ok ())
  in
  Tm2c_engine.Det.fold
    (fun id n acc ->
      let* () = acc in
      if Hashtbl.mem flow_s id then Ok ()
      else Error (Printf.sprintf "flow %d: %d finish(es) without a start" id n))
    flow_f (Ok ())

let validate_file path = validate (Json.of_file path)
