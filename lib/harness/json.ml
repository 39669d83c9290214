(* Minimal JSON: enough to serialize experiment results and to parse
   them back in tests. No external dependency — the container image has
   no yojson. The parser reads whole documents (result files are small,
   KBs). The printer streams: a [Seq] item is rendered only when the
   printer reaches it, so a Perfetto timeline is never a whole tree,
   and [to_file] writes each finished 64 KiB piece to the channel, so
   the document text is never whole in memory either. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Seq of t Seq.t
  | Obj of (string * t) list

(* ---- printing ---- *)

(* Unescaped runs go in with one [add_substring] each; a string that
   needs no escape is one copy. *)
let escape buf s =
  let start = ref 0 in
  for i = 0 to String.length s - 1 do
    let c = String.unsafe_get s i in
    if c = '"' || c = '\\' || Char.code c < 0x20 then begin
      Buffer.add_substring buf s !start (i - !start);
      start := i + 1;
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
    end
  done;
  Buffer.add_substring buf s !start (String.length s - !start)

(* JSON has no nan/infinity: non-finite values (e.g. the commit rate of
   a zero-commit window) serialize as null. Integral values below 1e15
   print as Printf's %.1f does. Other finite values use the shortest of
   %.15g/%.16g/%.17g that parses back to exactly [f] (17 significant
   digits always round-trip a double), so files aren't littered with
   0.30000000000000004-style artifacts.

   The bytes are Printf's, but no format is interpreted. A %.Pg
   candidate in fixed notation is the P-digit integer N nearest to
   x·10^k, x = |f|, with the point k places from the right: for k in
   0..22, 10^k is an exact double, so [Float.fma] gives the product's
   rounding error exactly and N, ties to even, comes from exact
   comparisons.
   N < 2^53 parses back to [f] iff N /. 10^k, a correctly rounded
   division just as strtod's, equals x. The C formatter is left only
   what falls outside that: exponent notation (decimal exponent below
   -4 or at least P), k beyond the table, and a 16-digit N >= 2^53,
   whose round trip [float_of_string] checks. *)

(* The C primitive behind [Printf]'s %g, for what the digit path leaves. *)
external format_float : string -> float -> string = "caml_format_float"

let pow10 =
  [| 1e0; 1e1; 1e2; 1e3; 1e4; 1e5; 1e6; 1e7; 1e8; 1e9; 1e10; 1e11; 1e12;
     1e13; 1e14; 1e15; 1e16; 1e17; 1e18; 1e19; 1e20; 1e21; 1e22 |]

(* The integer nearest to the exact product p + err, ties to even,
   where [p] is the rounded product and |err| <= ulp(p)/2 its rounding
   error. *)
let[@inline] nearest p err =
  if p < 0x1p52 then begin
    (* ulp(p) <= 1/2 divides both [frac] and 1/2, so [err] decides
       only an exact half. *)
    let fl = Float.floor p in
    let n = Float.to_int fl and frac = p -. fl in
    if frac > 0.5 || (frac = 0.5 && (err > 0.0 || (err = 0.0 && n land 1 = 1)))
    then n + 1
    else n
  end
  else begin
    (* [p] is an integer: round the residual. *)
    let fl = Float.floor err in
    let n = Float.to_int p + Float.to_int fl and frac = err -. fl in
    if frac > 0.5 || (frac = 0.5 && n land 1 = 1) then n + 1 else n
  end

(* The [prec] digits of [n] into [d] with the point [k] places from
   the right, as %g's fixed notation has them: trailing fraction zeros
   dropped, then the point if no fraction is left. Returns the
   length. *)
let set_fixed d f n k prec =
  let int_digits = if prec > k then prec - k else 1 in
  let n = ref n and k = ref k in
  while !k > 0 && !n mod 10 = 0 do
    n := !n / 10;
    decr k
  done;
  let sign = if f < 0.0 then 1 else 0 in
  let len = sign + int_digits + if !k > 0 then !k + 1 else 0 in
  let point = if !k > 0 then len - 1 - !k else -1 in
  for i = len - 1 downto sign do
    if i = point then Bytes.set d i '.'
    else begin
      Bytes.set d i (Char.unsafe_chr (48 + (!n mod 10)));
      n := !n / 10
    end
  done;
  if sign = 1 then Bytes.set d 0 '-';
  len

(* Append [f]'s %.[prec]g text and return true if it parses back to
   [f], or unconditionally when [last]; [f] is finite and nonzero.
   [k], the digits after the point, starts from a guess and is
   settled by exact comparisons of x·10^k against 10^(prec-1) and
   10^prec, since p + err is the exact product. Rounding may then
   carry N to 10^prec, which moves the exponent up by one. *)
let candidate buf d f prec ~last k =
  let x = Float.abs f in
  let lo = pow10.(prec - 1) and hi = pow10.(prec) in
  let k = ref k and p = ref 0.0 and err = ref 0.0 and settled = ref false in
  while (not !settled) && !k >= 0 && !k <= 22 do
    let t = pow10.(!k) in
    p := x *. t;
    err := Float.fma x t (-. !p);
    if !p > hi || (!p = hi && !err >= 0.0) then decr k
    else if !p < lo || (!p = lo && !err < 0.0) then incr k
    else settled := true
  done;
  let n = ref 0 in
  if !settled then begin
    n := nearest !p !err;
    if !n = Float.to_int hi then begin
      n := Float.to_int lo;
      decr k
    end
  end;
  if !settled && !k >= 0 && !k <= prec + 3 then begin
    let n = !n and k = !k in
    let fits =
      last
      || if n < 1 lsl 53 then Float.of_int n /. pow10.(k) = x
         else float_of_string (Bytes.sub_string d 0 (set_fixed d f n k prec)) = f
    in
    if fits then Buffer.add_subbytes buf d 0 (set_fixed d f n k prec);
    fits
  end
  else begin
    let s =
      format_float (match prec with 15 -> "%.15g" | 16 -> "%.16g" | _ -> "%.17g") f
    in
    let fits = last || float_of_string s = f in
    if fits then Buffer.add_string buf s;
    fits
  end

(* [d] is scratch for a candidate's digits: sign, "0.", up to three
   more leading zeros and 17 digits. *)
let add_float buf d f =
  if not (Float.is_finite f) then Buffer.add_string buf "null"
  else if Float.is_integer f && Float.abs f < 1e15 then begin
    if Float.sign_bit f then Buffer.add_char buf '-';
    Tm2c_engine.Decimal.add_int buf (Float.to_int (Float.abs f));
    Buffer.add_string buf ".0"
  end
  else begin
    let e = Float.to_int (Float.floor (Float.log10 (Float.abs f))) in
    if
      not
        (candidate buf d f 15 ~last:false (14 - e)
        || candidate buf d f 16 ~last:false (15 - e))
    then ignore (candidate buf d f 17 ~last:true (16 - e) : bool)
  end

(* The printer fills [buf] and hands it to [flush] every [spill_at]
   bytes, at element boundaries: [to_string] keeps the pieces and joins
   them with one exact-size allocation, [to_file] writes them to its
   channel. A large document (a Perfetto timeline runs to megabytes) so
   never sits in a doubled buffer plus its copy. *)
type out = {
  buf : Buffer.t;
  digits : Bytes.t;  (* [add_float]'s scratch *)
  indent : bool;
  flush : Buffer.t -> unit;
}

let spill_at = 65536

let spill out =
  if Buffer.length out.buf >= spill_at then begin
    out.flush out.buf;
    Buffer.clear out.buf
  end

let newline out level =
  if out.indent then begin
    Buffer.add_char out.buf '\n';
    for _ = 1 to level do
      Buffer.add_string out.buf "  "
    done
  end

let rec write out level v =
  let buf = out.buf in
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Tm2c_engine.Decimal.add_int buf i
  | Float f -> add_float buf out.digits f
  | String s ->
      Buffer.add_char buf '"';
      escape buf s;
      Buffer.add_char buf '"'
  | List [] -> Buffer.add_string buf "[]"
  | List (item :: rest) ->
      Buffer.add_char buf '[';
      element out level item;
      elements out level rest;
      close out level ']'
  | Seq s -> (
      match s () with
      | Seq.Nil -> Buffer.add_string buf "[]"
      | Seq.Cons (item, rest) ->
          Buffer.add_char buf '[';
          element out level item;
          seq_elements out level rest;
          close out level ']')
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj (kv :: rest) ->
      Buffer.add_char buf '{';
      field out level kv;
      fields out level rest;
      close out level '}'

and element out level item =
  newline out (level + 1);
  write out (level + 1) item;
  spill out

and elements out level = function
  | [] -> ()
  | item :: rest ->
      Buffer.add_char out.buf ',';
      element out level item;
      elements out level rest

and seq_elements out level s =
  match s () with
  | Seq.Nil -> ()
  | Seq.Cons (item, rest) ->
      Buffer.add_char out.buf ',';
      element out level item;
      seq_elements out level rest

and field out level (k, item) =
  newline out (level + 1);
  Buffer.add_char out.buf '"';
  escape out.buf k;
  Buffer.add_string out.buf (if out.indent then "\": " else "\":");
  write out (level + 1) item;
  spill out

and fields out level = function
  | [] -> ()
  | kv :: rest ->
      Buffer.add_char out.buf ',';
      field out level kv;
      fields out level rest

and close out level c =
  newline out level;
  Buffer.add_char out.buf c

(* Print [v] whole, handing every piece but the last to [flush]; the
   last stays in the returned buffer. *)
let print ~indent ~flush v =
  let out = { buf = Buffer.create 4096; digits = Bytes.create 32; indent; flush } in
  write out 0 v;
  if indent then Buffer.add_char out.buf '\n';
  out.buf

let to_string ?(indent = true) v =
  let spilled = ref [] in
  let last = print ~indent ~flush:(fun b -> spilled := Buffer.contents b :: !spilled) v in
  String.concat "" (List.rev (Buffer.contents last :: !spilled))

let to_file ?(indent = true) path v =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> Buffer.output_buffer oc (print ~indent ~flush:(Buffer.output_buffer oc) v))

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
  | Seq s -> List.of_seq s
  | _ -> invalid_arg "Json.to_list_exn"

let to_int_opt = function Int i -> Some i | _ -> None

let to_float_opt = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_string_opt = function String s -> Some s | _ -> None
