(* Machine-readable history log: one event per line,

     <timestamp> <TAG> <fields...>

   space-separated, timestamps and durations in OCaml hex-float
   notation ("%h") so virtual times round-trip exactly — the checkers
   compare replayed instants for equality and a decimal detour would
   corrupt ties. The format is append-only and versioned by the
   header line; tm2c-check refuses logs with an unknown header.

   Writing and reading are both streaming: the writer appends one
   line per event as it arrives (fed straight from the trace sink)
   and stamps an "# events N" footer on close, which readers verify
   when present, so a truncated log is detected instead of silently
   checked short. Reading iterates line by line — tm2c-check never
   needs the whole log in memory. *)

open Tm2c_core

(* Only v5 loads: nothing writes an older version any more. Each
   record's tag and columns come from the event description table
   ([Event.describe] / [Event.of_fields]). *)
let header = "# tm2c-history v5"

let footer_prefix = "# events "

let token (v : Event.value) =
  match v with
  | Int n -> string_of_int n
  | Float x -> Printf.sprintf "%h" x
  | Bool b -> if b then "1" else "0"
  | Str s -> s
  | Ints l -> String.concat "," (List.map string_of_int l)

let write_event oc time ev =
  let k, vs = Event.describe ev in
  output_string oc (Printf.sprintf "%h" time);
  output_char oc ' ';
  output_string oc k.Event.tag;
  List.iter
    (fun v ->
      output_char oc ' ';
      output_string oc (token v))
    vs;
  output_char oc '\n'

(* Streaming writer: header up front, one line per event, count
   footer on close. *)
type writer = { w_oc : out_channel; mutable w_count : int; w_owns : bool }

let writer_of_channel oc =
  Printf.fprintf oc "%s\n" header;
  { w_oc = oc; w_count = 0; w_owns = false }

let create_writer path =
  let oc = open_out path in
  Printf.fprintf oc "%s\n" header;
  { w_oc = oc; w_count = 0; w_owns = true }

let put w time ev =
  write_event w.w_oc time ev;
  w.w_count <- w.w_count + 1

let written w = w.w_count

let close_writer w =
  Printf.fprintf w.w_oc "%s%d\n" footer_prefix w.w_count;
  if w.w_owns then close_out w.w_oc else flush w.w_oc

let write oc iter =
  let w = writer_of_channel oc in
  iter (fun time ev -> put w time ev);
  close_writer w

let save path iter =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> write oc iter)

let parse_error lineno msg =
  failwith (Printf.sprintf "history log line %d: %s" lineno msg)

let parse_line lineno line =
  let fail fmt = Printf.ksprintf (parse_error lineno) fmt in
  let int v =
    match int_of_string_opt v with Some n -> n | None -> fail "bad integer %S" v
  in
  (* Non-finite numbers are refused: no simulator quantity is NaN or
     infinite, and the checkers compare instants for equality. *)
  let float what v =
    match float_of_string_opt v with
    | Some x when Float.is_finite x -> x
    | _ -> fail "bad %s %S" what v
  in
  let value (name, (ty : Event.ty)) v : Event.value =
    match ty with
    | T_int -> Int (int v)
    | T_float -> Float (float name v)
    | T_bool -> (
        match v with "0" -> Bool false | "1" -> Bool true | _ -> fail "bad flag %S" v)
    | T_str -> Str v
    | T_ints -> Ints (if v = "" then [] else List.map int (String.split_on_char ',' v))
  in
  match String.split_on_char ' ' line with
  | time_s :: tag :: tokens -> (
      let time = float "timestamp" time_s in
      match List.find_opt (fun k -> k.Event.tag = tag) Event.kinds with
      | Some k when List.compare_lengths k.Event.fields tokens = 0 -> (
          match Event.of_fields tag (List.map2 value k.Event.fields tokens) with
          | Ok ev -> (time, ev)
          | Error msg -> fail "%s" msg)
      | _ -> fail "unrecognized record %S" (String.concat " " (tag :: tokens)))
  | _ -> fail "short line"

let is_prefix pre s =
  String.length s >= String.length pre
  && String.sub s 0 (String.length pre) = pre

let iter_channel ic f =
  (match input_line ic with
  | h when h = header -> ()
  | h -> failwith (Printf.sprintf "unknown history log header %S" h)
  | exception End_of_file ->
      failwith (Printf.sprintf "empty history log: expected %S header" header));
  let count = ref 0 in
  let lineno = ref 1 in
  (try
     while true do
       let line = input_line ic in
       incr lineno;
       if line = "" then ()
       else if line.[0] = '#' then begin
         (* The count footer, when present, must match the events
            seen so far: a mismatch means the log was truncated (or
            grew) after the writer closed it. *)
         if is_prefix footer_prefix line then
           let declared =
             String.sub line (String.length footer_prefix)
               (String.length line - String.length footer_prefix)
           in
           match int_of_string_opt (String.trim declared) with
           | Some n when n = !count -> ()
           | Some n ->
               parse_error !lineno
                 (Printf.sprintf
                    "event-count footer says %d but %d events precede it \
                     (truncated log?)" n !count)
           | None -> parse_error !lineno "malformed event-count footer"
       end
       else begin
         let time, ev = parse_line !lineno line in
         incr count;
         f time ev
       end
     done
   with End_of_file -> ());
  !count

let iter_file path f =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> iter_channel ic f)

let read ic =
  let events = ref [] in
  let _ = iter_channel ic (fun time ev -> events := (time, ev) :: !events) in
  List.rev !events

let load path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> read ic)
