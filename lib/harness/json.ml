(* Minimal JSON: enough to serialize experiment results and to parse
   them back in tests. No external dependency — the container image has
   no yojson — and no streaming parser: result files are small (KBs);
   only the printer meets large documents (Perfetto timelines). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ---- printing ---- *)

let escape buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

(* The printer fills [buf] and moves it into [spilled] every
   [spill_at] bytes, at element boundaries; [to_string] then joins the
   pieces with one exact-size allocation. A large document (a Perfetto
   timeline runs to megabytes) so never sits in a doubled buffer plus
   its copy. *)
type out = { buf : Buffer.t; mutable spilled : string list }

let spill_at = 65536

let spill out =
  if Buffer.length out.buf >= spill_at then begin
    out.spilled <- Buffer.contents out.buf :: out.spilled;
    Buffer.clear out.buf
  end

let rec write out ~indent ~level v =
  let buf = out.buf in
  let pad n = if indent then Buffer.add_string buf (String.make (2 * n) ' ') in
  let nl () = if indent then Buffer.add_char buf '\n' in
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
      (* JSON has no nan/infinity: non-finite values (e.g. the commit
         rate of a zero-commit window) serialize as null. Finite
         non-integral values use the shortest decimal form that parses
         back to exactly [f] (%.15g usually suffices; 17 significant
         digits always round-trip a double), so files aren't littered
         with 0.30000000000000004-style artifacts. *)
      if not (Float.is_finite f) then Buffer.add_string buf "null"
      else if Float.is_integer f && Float.abs f < 1e15 then
        Buffer.add_string buf (Printf.sprintf "%.1f" f)
      else begin
        let s15 = Printf.sprintf "%.15g" f in
        if float_of_string s15 = f then Buffer.add_string buf s15
        else
          let s16 = Printf.sprintf "%.16g" f in
          if float_of_string s16 = f then Buffer.add_string buf s16
          else Buffer.add_string buf (Printf.sprintf "%.17g" f)
      end
  | String s ->
      Buffer.add_char buf '"';
      escape buf s;
      Buffer.add_char buf '"'
  | List [] -> Buffer.add_string buf "[]"
  | List items ->
      Buffer.add_char buf '[';
      nl ();
      List.iteri
        (fun i item ->
          if i > 0 then begin
            Buffer.add_char buf ',';
            nl ()
          end;
          pad (level + 1);
          write out ~indent ~level:(level + 1) item;
          spill out)
        items;
      nl ();
      pad level;
      Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
      Buffer.add_char buf '{';
      nl ();
      List.iteri
        (fun i (k, item) ->
          if i > 0 then begin
            Buffer.add_char buf ',';
            nl ()
          end;
          pad (level + 1);
          Buffer.add_char buf '"';
          escape buf k;
          Buffer.add_string buf (if indent then "\": " else "\":");
          write out ~indent ~level:(level + 1) item;
          spill out)
        fields;
      nl ();
      pad level;
      Buffer.add_char buf '}'

let to_string ?(indent = true) v =
  let out = { buf = Buffer.create 4096; spilled = [] } in
  write out ~indent ~level:0 v;
  if indent then Buffer.add_char out.buf '\n';
  String.concat "" (List.rev (Buffer.contents out.buf :: out.spilled))

let to_file ?indent path v =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string ?indent v))

(* ---- parsing ---- *)

exception Parse_error of string

type cursor = { s : string; mutable pos : int }

let fail c msg = raise (Parse_error (Printf.sprintf "at %d: %s" c.pos msg))

let peek c = if c.pos < String.length c.s then Some c.s.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let rec skip_ws c =
  match peek c with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance c;
      skip_ws c
  | _ -> ()

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | _ -> fail c (Printf.sprintf "expected %C" ch)

let literal c word v =
  if
    c.pos + String.length word <= String.length c.s
    && String.sub c.s c.pos (String.length word) = word
  then begin
    c.pos <- c.pos + String.length word;
    v
  end
  else fail c (Printf.sprintf "expected %s" word)

let parse_string_body c =
  let buf = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> fail c "unterminated string"
    | Some '"' -> advance c
    | Some '\\' ->
        advance c;
        (match peek c with
        | Some '"' -> Buffer.add_char buf '"'
        | Some '\\' -> Buffer.add_char buf '\\'
        | Some '/' -> Buffer.add_char buf '/'
        | Some 'n' -> Buffer.add_char buf '\n'
        | Some 'r' -> Buffer.add_char buf '\r'
        | Some 't' -> Buffer.add_char buf '\t'
        | Some 'b' -> Buffer.add_char buf '\b'
        | Some 'f' -> Buffer.add_char buf '\012'
        | Some 'u' ->
            if c.pos + 4 >= String.length c.s then fail c "bad \\u escape";
            let hex = String.sub c.s (c.pos + 1) 4 in
            let code =
              try int_of_string ("0x" ^ hex) with _ -> fail c "bad \\u escape"
            in
            (* Only BMP code points below 0x80 round-trip exactly; our
               own output never emits others. *)
            if code < 0x80 then Buffer.add_char buf (Char.chr code)
            else Buffer.add_string buf (Printf.sprintf "\\u%04x" code);
            c.pos <- c.pos + 4
        | _ -> fail c "bad escape");
        advance c;
        go ()
    | Some ch ->
        Buffer.add_char buf ch;
        advance c;
        go ()
  in
  go ();
  Buffer.contents buf

let parse_number c =
  let start = c.pos in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while match peek c with Some ch -> is_num_char ch | None -> false do
    advance c
  done;
  let tok = String.sub c.s start (c.pos - start) in
  if String.contains tok '.' || String.contains tok 'e' || String.contains tok 'E'
  then
    match float_of_string_opt tok with
    | Some f -> Float f
    | None -> fail c "bad number"
  else
    match int_of_string_opt tok with
    | Some i -> Int i
    | None -> fail c "bad number"

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail c "unexpected end of input"
  | Some 'n' -> literal c "null" Null
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some '"' ->
      advance c;
      String (parse_string_body c)
  | Some '[' ->
      advance c;
      skip_ws c;
      if peek c = Some ']' then begin
        advance c;
        List []
      end
      else begin
        let items = ref [ parse_value c ] in
        skip_ws c;
        while peek c = Some ',' do
          advance c;
          items := parse_value c :: !items;
          skip_ws c
        done;
        expect c ']';
        List (List.rev !items)
      end
  | Some '{' ->
      advance c;
      skip_ws c;
      if peek c = Some '}' then begin
        advance c;
        Obj []
      end
      else begin
        let field () =
          skip_ws c;
          expect c '"';
          let k = parse_string_body c in
          skip_ws c;
          expect c ':';
          let v = parse_value c in
          (k, v)
        in
        let fields = ref [ field () ] in
        skip_ws c;
        while peek c = Some ',' do
          advance c;
          fields := field () :: !fields;
          skip_ws c
        done;
        expect c '}';
        Obj (List.rev !fields)
      end
  | Some _ -> parse_number c

let of_string s =
  let c = { s; pos = 0 } in
  let v = parse_value c in
  skip_ws c;
  if c.pos <> String.length s then fail c "trailing garbage";
  v

let of_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_string (really_input_string ic (in_channel_length ic)))

(* ---- access helpers ---- *)

let member k = function Obj fields -> List.assoc_opt k fields | _ -> None

let rec path keys v =
  match keys with
  | [] -> Some v
  | k :: rest -> ( match member k v with Some v' -> path rest v' | None -> None)

let to_list_exn = function
  | List items -> items
  | _ -> invalid_arg "Json.to_list_exn"

let to_int_opt = function Int i -> Some i | _ -> None

let to_float_opt = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_string_opt = function String s -> Some s | _ -> None
