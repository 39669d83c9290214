(* The JSON exporter: printer/parser round-trips and the structure of
   an exported run (the fig5a shape: bank workload with contention). *)

open Tm2c_harness

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ---- Json printer/parser ---- *)

let sample =
  Json.Obj
    [
      ("name", Json.String "fig5a");
      ("n", Json.Int 48);
      ("rate", Json.Float 93.25);
      ("ok", Json.Bool true);
      ("none", Json.Null);
      ( "rows",
        Json.List
          [
            Json.List [ Json.Int 1; Json.Float 2.5 ];
            Json.Obj [ ("empty_list", Json.List []); ("empty_obj", Json.Obj []) ];
          ] );
      ("escaped", Json.String "line\nbreak \"quoted\" back\\slash\ttab");
    ]

let test_roundtrip () =
  check "pretty round-trips" true (Json.of_string (Json.to_string sample) = sample);
  check "compact round-trips" true
    (Json.of_string (Json.to_string ~indent:false sample) = sample)

let test_non_finite () =
  let s = Json.to_string ~indent:false (Json.List [ Json.Float Float.nan ]) in
  check_string "nan serializes as null" "[null]" s;
  let s = Json.to_string ~indent:false (Json.Float Float.infinity) in
  check_string "infinity serializes as null" "null" s

let test_parse_handwritten () =
  let v =
    Json.of_string
      {| { "a": [1, -2.5e1, "xA"], "b": { "c": null }, "d": false } |}
  in
  check "nested path" true (Json.path [ "b"; "c" ] v = Some Json.Null);
  (match Json.member "a" v with
  | Some (Json.List [ Json.Int 1; Json.Float f; Json.String s ]) ->
      Alcotest.(check (float 1e-9)) "exponent" (-25.0) f;
      check_string "unicode escape" "xA" s
  | _ -> Alcotest.fail "unexpected shape");
  Alcotest.check_raises "trailing garbage rejected"
    (Json.Parse_error "at 5: trailing garbage") (fun () ->
      ignore (Json.of_string "null x"))

let test_file_roundtrip () =
  Tmp.with_path ~suffix:".json" (fun path ->
      Json.to_file path sample;
      check "file round-trips" true (Json.of_file path = sample))

(* [to_file] streams its pieces to the channel; the file must hold
   exactly the bytes [to_string] returns, in both indent modes, for a
   small document and for a Perfetto timeline of several pieces. *)
let test_file_streams_to_string_bytes () =
  let traced =
    let open Tm2c_core in
    let open Tm2c_apps in
    let t = Runtime.create (Exp.config ~total:8 ~policy:Cm.Fair_cm ()) in
    Runtime.enable_tracing t;
    let bank = Bank.create t ~accounts:32 ~initial:1000 in
    ignore (Workload.drive t ~duration_ns:1.0e6 (Exp.bank_mix bank ~balance:20));
    Perfetto.export ~app:(Runtime.app_cores t) ~dtm:(Runtime.dtm_cores t) (Runtime.trace t)
  in
  List.iter
    (fun (name, doc) ->
      List.iter
        (fun indent ->
          Tmp.with_path ~suffix:".json" (fun path ->
              Json.to_file ~indent path doc;
              let bytes = In_channel.with_open_bin path In_channel.input_all in
              let expected = Json.to_string ~indent doc in
              check_string (Printf.sprintf "%s, indent %b" name indent) expected bytes))
        [ false; true ])
    [ ("sample", sample); ("perfetto", traced) ];
  check "the timeline spans several 64 KiB pieces" true
    (String.length (Json.to_string ~indent:false traced) > 4 * 65536)

(* A deferred list prints exactly like the list it defers, nested and
   empty alike, and [to_list_exn] reads it back. *)
let test_seq_prints_as_list () =
  let rec defer = function
    | Json.List l -> Json.Seq (List.to_seq (List.map defer l))
    | Json.Obj fields -> Json.Obj (List.map (fun (k, v) -> (k, defer v)) fields)
    | v -> v
  in
  let docs = [ sample; Json.List []; Json.List [ Json.List []; Json.Obj [] ] ] in
  List.iter
    (fun doc ->
      List.iter
        (fun indent ->
          check_string "same bytes" (Json.to_string ~indent doc) (Json.to_string ~indent (defer doc)))
        [ false; true ])
    docs;
  check "to_list_exn reads a Seq" true
    (Json.to_list_exn (Json.Seq (List.to_seq [ Json.Int 1; Json.Null ])) = [ Json.Int 1; Json.Null ])

(* ---- printer parity with the Printf-based formatter ---- *)

(* The formatter the printer had before it called the float primitive
   directly and copied unescaped runs whole: the reference the new
   paths must match byte for byte. *)
let reference_escape s =
  let buf = Buffer.create 16 in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  "\"" ^ Buffer.contents buf ^ "\""

let reference_float f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else
    let s15 = Printf.sprintf "%.15g" f in
    if float_of_string s15 = f then s15
    else
      let s16 = Printf.sprintf "%.16g" f in
      if float_of_string s16 = f then s16 else Printf.sprintf "%.17g" f

let special_floats =
  [
    0.0; -0.0; Float.nan; Float.infinity; Float.neg_infinity;
    (* integers on both sides of 1e15 *)
    1e15; -1e15; 1e15 -. 1.0; 1e15 +. 1.0; 999_999_999_999_999.0; 4503599627370496.0;
    (* 16 and 17 significant digits *)
    1.0 /. 3.0; 2.0 /. 3.0; 0.1 +. 0.2; 1.0 -. epsilon_float;
    (* subnormals and extremes *)
    5e-324; -5e-324; Float.min_float /. 3.0; Float.min_float; Float.max_float; -.Float.max_float;
    0.5; 1234.567; 1e21; 1e-7;
  ]

let test_printer_parity_fixed () =
  List.iter
    (fun f -> check_string (Printf.sprintf "%h" f) (reference_float f) (Json.to_string ~indent:false (Json.Float f)))
    special_floats;
  check_string "16 digits taken" "0.3333333333333333" (reference_float (1.0 /. 3.0));
  check_string "17 digits taken" "0.30000000000000004" (reference_float (0.1 +. 0.2));
  let all = String.init 0x80 Char.chr in
  check_string "bytes 0x00-0x7f" (reference_escape all) (Json.to_string ~indent:false (Json.String all));
  for b = 0 to 0x7f do
    let s = Printf.sprintf "a%cb" (Char.chr b) in
    check_string (Printf.sprintf "byte 0x%02x" b) (reference_escape s) (Json.to_string ~indent:false (Json.String s));
    check_string (Printf.sprintf "key byte 0x%02x" b)
      ("{" ^ reference_escape s ^ ":null}")
      (Json.to_string ~indent:false (Json.Obj [ (s, Json.Null) ]))
  done

(* [n] steps of one ulp from [f] (positive [f], small [n]). *)
let ulps f n = Int64.float_of_bits (Int64.add (Int64.bits_of_float f) (Int64.of_int n))

(* The printer's digit path covers the fixed-notation range, so most
   families aim there: the exporter's microsecond timestamps, values
   next to powers of ten (where the decimal exponent and the rounding
   carry are decided) and next to powers of two, exact decimal ties,
   16-digit values above 2^53 (the one fixed case parsed back by
   [float_of_string]) and both sides of 1e-4 (fixed vs exponent
   notation). Random bit patterns mostly take the formatter fallback. *)
let float_parity =
  let pow10 e = float_of_string ("1e" ^ string_of_int e) in
  let gen =
    QCheck.Gen.(
      let magnitude =
        frequency
          [
            (2, map Int64.float_of_bits ui64);
            (* µs timestamps: whole ns, and fractional ns sums *)
            (3, map (fun k -> float_of_int k /. 1e3) (int_range 0 100_000_000_000));
            ( 3,
              map2
                (fun ns frac -> (float_of_int ns +. frac) /. 1e3)
                (int_range 0 100_000_000) (float_bound_exclusive 1.0) );
            (* powers of ten within a few ulps, including the
               9.99...9 values whose rounding carries to 10^n *)
            (3, map2 (fun e d -> ulps (pow10 e) d) (int_range (-6) 17) (int_range (-10) 3));
            (* 2^n and its neighbours in [1e-4, 1e15) *)
            (2, map2 (fun e d -> ulps (Float.ldexp 1.0 e) d) (int_range (-13) 49) (int_range (-1) 1));
            (* exact binary ties: n + 1/2, n + 1/4, ... up to 2^51 *)
            ( 3,
              map2
                (fun m j -> Float.ldexp (float_of_int ((2 * m) + 1)) (-j))
                (int_range 0 (1 lsl 50)) (int_range 1 4) );
            (* 16-digit integers above 2^53 *)
            (2, map (fun m -> 0x1p53 +. (2.0 *. float_of_int m)) (int_range 0 500_000_000_000_000));
            (* either side of 1e-4 and 1e-5 *)
            (2, map2 (fun e d -> ulps (pow10 e) d) (int_range (-5) (-4)) (int_range (-2000) 2000));
            (1, float_bound_inclusive 2e-4);
            (2, map (fun d -> 1e15 +. float_of_int d) (int_range (-2000) 2000));
            (2, map float_of_int (int_range 0 4_000_000_000_000_000));
            (2, float_bound_inclusive 1e6);
            (1, float_bound_inclusive 1e17);
            (1, map (fun m -> Int64.float_of_bits (Int64.of_int m)) (int_range 0 (1 lsl 52)));
          ]
      in
      frequency
        [
          (20, map2 (fun f neg -> if neg then -.f else f) magnitude bool);
          (1, oneofl special_floats);
        ])
  in
  QCheck.Test.make ~name:"printer floats match the Printf formatter" ~count:20_000
    (QCheck.make ~print:(Printf.sprintf "%h") gen)
    (fun f -> Json.to_string ~indent:false (Json.Float f) = reference_float f)

let string_parity =
  let gen = QCheck.Gen.(string_size ~gen:(map Char.chr (int_bound 0x7f)) (int_range 0 40)) in
  QCheck.Test.make ~name:"printer strings match the Printf formatter" ~count:1000
    (QCheck.make ~print:String.escaped gen)
    (fun s -> Json.to_string ~indent:false (Json.String s) = reference_escape s)

(* ---- exported run structure ---- *)

(* A small contended bank run — the fig5a workload shape — must export
   every metric family the observability layer promises. *)
let exported_run () =
  let open Tm2c_core in
  let open Tm2c_apps in
  let cfg = Exp.config ~total:8 ~policy:Cm.Fair_cm () in
  let t = Runtime.create cfg in
  let accounts = 32 in
  let bank = Bank.create t ~accounts ~initial:1000 in
  let r =
    Workload.drive t ~duration_ns:1.5e6 (Exp.bank_mix bank ~balance:20)
  in
  Report.run_json t r

let test_export_fields () =
  let v = Json.of_string (Json.to_string (exported_run ())) in
  let int_at p =
    match Option.bind (Json.path p v) Json.to_int_opt with
    | Some i -> i
    | None -> Alcotest.fail (String.concat "." p ^ " missing")
  in
  check "commits positive" true (int_at [ "result"; "commits" ] > 0);
  check "messages positive" true (int_at [ "network"; "sent" ] > 0);
  check "latency samples" true (int_at [ "network"; "latency_ns"; "count" ] > 0);
  (* Causality is recorded at the server's decision; the victim's
     stats abort lands when it observes it. Transactions still in
     flight at the horizon appear in the former only. *)
  check "abort causality covers observed aborts" true
    (int_at [ "aborts"; "total" ] >= int_at [ "result"; "aborts" ]
    && int_at [ "aborts"; "total" ] > 0);
  (match Json.path [ "cores" ] v with
  | Some (Json.List (_ :: _ as cores)) ->
      List.iter
        (fun c ->
          check "per-core commit counter" true (Json.member "commits" c <> None);
          check "per-core abort counter" true (Json.member "aborts" c <> None))
        cores
  | _ -> Alcotest.fail "cores missing");
  (match Json.path [ "dtm" ] v with
  | Some (Json.List (_ :: _ as servers)) ->
      List.iter
        (fun s ->
          check "queue-depth stats" true
            (Json.path [ "queue_depth"; "mean" ] s <> None
            && Json.path [ "queue_depth"; "max" ] s <> None))
        servers
  | _ -> Alcotest.fail "dtm servers missing");
  match Json.path [ "aborts"; "by_conflict" ] v with
  | Some (Json.Obj fields) ->
      Alcotest.(check (list string))
        "per-conflict-type causality counts"
        [ "RAW"; "WAW"; "WAR"; "STATUS" ]
        (List.map fst fields)
  | _ -> Alcotest.fail "by_conflict missing"

let suite =
  [
    ("json: round-trip", `Quick, test_roundtrip);
    ("json: non-finite floats", `Quick, test_non_finite);
    ("json: handwritten input", `Quick, test_parse_handwritten);
    ("json: file round-trip", `Quick, test_file_roundtrip);
    ("json: to_file bytes = to_string bytes", `Quick, test_file_streams_to_string_bytes);
    ("json: a Seq prints like its List", `Quick, test_seq_prints_as_list);
    ("json: printer parity on fixed values", `Quick, test_printer_parity_fixed);
    QCheck_alcotest.to_alcotest float_parity;
    QCheck_alcotest.to_alcotest string_parity;
    ("export: run structure", `Quick, test_export_fields);
  ]
