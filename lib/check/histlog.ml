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

(* Written beside the footer when the run armed wedge detection, so a
   replay judges wedged cores the way the run did. *)
let stuck_prefix = "# stuck-after-ns "

(* Numbers are written straight into the line buffer, with no format
   interpreted and no intermediate string: integers as [string_of_int]
   prints them ([Decimal.add_int]), floats as Printf's "%h" does. The
   loops are top-level functions, so a line allocates nothing beyond
   [Event.describe]'s field list. *)

let add_int = Tm2c_engine.Decimal.add_int

let rec add_ints buf = function
  | [] -> ()
  | [ n ] -> add_int buf n
  | n :: rest ->
      add_int buf n;
      Buffer.add_char buf ',';
      add_ints buf rest

let hex_digits = "0123456789abcdef"

(* The fraction's nibbles from bit [shift] down, into [d] from [pos],
   stopping after the last nonzero one; returns the end position. *)
let rec set_nibbles d pos shift f =
  Bytes.set d pos hex_digits.[f lsr shift];
  let f = f land ((1 lsl shift) - 1) in
  if f <> 0 then set_nibbles d (pos + 1) (shift - 4) f else pos + 1

(* "%h" from the IEEE-754 bits: [-]0x1[.fraction]p<+-exponent> for
   normals, [-]0x0.<fraction>p-1022 for subnormals, [-]0x0p+0 for
   zeros, the 52-bit fraction a nibble at a time with trailing zero
   nibbles dropped. The digits up to the 'p' are set in the scratch
   [d], whose "0x" prefix [make_writer] wrote, and appended in one
   call. A non-finite value has no line the reader accepts, so it is
   refused here, where its record and field are still known. *)
let add_float buf d tag field x =
  (* [Int64.to_int] keeps the low 63 bits: exponent and fraction. *)
  let bits = Int64.to_int (Int64.bits_of_float x) in
  let biased = (bits lsr 52) land 0x7ff in
  let frac = bits land 0xf_ffff_ffff_ffff in
  if biased = 0x7ff then
    invalid_arg
      (Printf.sprintf "Histlog.put: non-finite %s %h in a %s record" field x tag);
  if Float.sign_bit x then Buffer.add_char buf '-';
  Bytes.set d 2 (if biased = 0 then '0' else '1');
  let pos =
    if frac = 0 then 3
    else begin
      Bytes.set d 3 '.';
      set_nibbles d 4 48 frac
    end
  in
  Bytes.set d pos 'p';
  Buffer.add_subbytes buf d 0 (pos + 1);
  let exp = if biased > 0 then biased - 1023 else if frac = 0 then 0 else -1022 in
  if exp >= 0 then Buffer.add_char buf '+';
  add_int buf exp

(* The row's field names travel beside the values only to name the
   field a non-finite float came from. *)
let rec add_fields buf d tag fields (vs : Event.value list) =
  match (fields, vs) with
  | (name, _) :: fields, v :: vs ->
      Buffer.add_char buf ' ';
      (match v with
      | Int n -> add_int buf n
      | Float x -> add_float buf d tag name x
      | Bool b -> Buffer.add_char buf (if b then '1' else '0')
      | Str s -> Buffer.add_string buf s
      | Ints l -> add_ints buf l);
      add_fields buf d tag fields vs
  | _ -> ()

(* Streaming writer: header up front, one line per event, count
   footer on close. Each line is assembled in [w_buf] and handed to
   the channel in one call. *)
type writer = {
  w_oc : out_channel;
  w_buf : Buffer.t;
  w_digits : Bytes.t;  (* [add_float]'s scratch: "0x1." + 13 nibbles + 'p' *)
  mutable w_count : int;
  w_owns : bool;
}

let make_writer oc ~owns =
  Printf.fprintf oc "%s\n" header;
  {
    w_oc = oc;
    w_buf = Buffer.create 128;
    w_digits = Bytes.of_string "0x1.0000000000000p";
    w_count = 0;
    w_owns = owns;
  }

let writer_of_channel oc = make_writer oc ~owns:false

let create_writer path = make_writer (open_out path) ~owns:true

let put w time ev =
  let buf = w.w_buf in
  let k, vs = Event.describe ev in
  Buffer.clear buf;
  add_float buf w.w_digits k.Event.tag "timestamp" time;
  Buffer.add_char buf ' ';
  Buffer.add_string buf k.Event.tag;
  add_fields buf w.w_digits k.Event.tag k.Event.fields vs;
  Buffer.add_char buf '\n';
  Buffer.output_buffer w.w_oc buf;
  w.w_count <- w.w_count + 1

let written w = w.w_count

let close_writer ?stuck_after_ns w =
  Option.iter (Printf.fprintf w.w_oc "%s%h\n" stuck_prefix) stuck_after_ns;
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
  let stuck_after_ns = ref None in
  (try
     while true do
       let line = input_line ic in
       incr lineno;
       if line = "" then ()
       else if line.[0] = '#' then begin
         let rest pre =
           String.trim
             (String.sub line (String.length pre)
                (String.length line - String.length pre))
         in
         if is_prefix stuck_prefix line then
           match float_of_string_opt (rest stuck_prefix) with
           | Some x when x >= 0.0 -> stuck_after_ns := Some x
           | _ -> parse_error !lineno "malformed stuck-after-ns line"
         else if is_prefix footer_prefix line then
           (* The count footer, when present, must match the events
              seen so far: a mismatch means the log was truncated (or
              grew) after the writer closed it. *)
           match int_of_string_opt (rest footer_prefix) with
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
  !stuck_after_ns

let iter_file path f =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> iter_channel ic f)

let load path =
  let events = ref [] in
  let stuck_after_ns = iter_file path (fun time ev -> events := (time, ev) :: !events) in
  (List.rev !events, stuck_after_ns)
