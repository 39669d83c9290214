type config = {
  roots : string list;
  det_prefixes : string list;
  recv_prefixes : string list;
  mli_required : string list;
  exporters : string list;
  event_mli : string option;
  waivers : Waiver.t list;
}

type report = {
  findings : Finding.t list;
  inventory : Mutstate.entry list;
}

(* The project waiver table. Every entry carries the justification
   that review accepted; stale entries (matching nothing) fail the
   lint, so this list cannot rot. *)
let default_waivers =
  [
    Waiver.v ~file:"lib/harness/harness.ml" ~rule:"wall-clock"
      "host-side benchmarking measures real elapsed seconds by design; \
       virtual-time results never read it";
    Waiver.v ~file:"lib/engine/heap.ml" ~rule:"obj-magic"
      "generic backing-array dummy slot: one documented constant, never \
       dereferenced at its fake type";
    Waiver.v ~file:"lib/engine/mailbox.ml" ~rule:"obj-magic"
      "mailbox ring and timed-delivery slots: same generic dummy-slot \
       pattern as the heap";
    Waiver.v ~file:"lib/engine/sim.ml" ~rule:"domain-use"
      "Domain.DLS gives each domain its own ambient-sim slot — the \
       domain-safety mechanism itself, introducing no cross-domain sharing";
    Waiver.v ~file:"lib/engine/sim.ml" ~rule:"global-mutable"
      ~symbol:"current_key"
      "Domain.DLS key: storage is per-domain by construction, so parallel \
       sweep cells cannot race on the ambient simulation";
    Waiver.v ~file:"lib/engine/det.ml" ~rule:"hashtbl-order"
      "the sanctioned wrapper: sorts bindings by key before exposing any \
       iteration order";
    Waiver.v ~file:"lib/tm2c/dtm.ml" ~rule:"untimed-recv"
      "the DS-lock server blocks for its next request by design: crash-stop \
       is modeled at wakeup, and the run horizon bounds the wait";
    Waiver.v ~file:"lib/tm2c/runtime.ml" ~rule:"untimed-recv"
      "barrier rendezvous: every peer's Barrier_reached send is already on \
       the wire or queued, so the receive cannot wedge";
    Waiver.v ~file:"lib/tm2c/tx.ml" ~rule:"untimed-recv"
      "reached only when request timeouts are configured off; the timed \
       variant is taken on every fault-tolerant configuration";
  ]

let default_config =
  {
    roots = [ "lib"; "bench"; "bin" ];
    det_prefixes = [ "lib/" ];
    recv_prefixes = [ "lib/tm2c/" ];
    mli_required = [ "lib/tm2c"; "lib/engine"; "lib/analysis" ];
    exporters = [ "lib/tm2c/event.ml" ];
    event_mli = Some "lib/tm2c/event.mli";
    waivers = default_waivers;
  }

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let scoped prefixes file = List.exists (fun p -> has_prefix ~prefix:p file) prefixes

(* Deterministic walk: sorted readdir, depth first. *)
let rec walk path acc =
  if Sys.is_directory path then
    Array.fold_left
      (fun acc entry -> walk (Filename.concat path entry) acc)
      acc
      (let entries = Sys.readdir path in
       Array.sort compare entries;
       entries)
  else if Filename.check_suffix path ".ml" || Filename.check_suffix path ".mli"
  then path :: acc
  else acc

let source_files roots =
  List.rev
    (List.fold_left
       (fun acc root ->
         if Sys.file_exists root then walk root acc
         else failwith (Printf.sprintf "tm2c-lint: root %s not found" root))
       [] roots)

let parse_or_finding file =
  match Ast_io.parse_file file with
  | ast -> Ok ast
  | exception Ast_io.Syntax_error { file; line; message } ->
      Error (Finding.v ~file ~line ~rule:"parse-error" message)

let check_mli_coverage cfg =
  List.concat_map
    (fun dir ->
      if Sys.file_exists dir && Sys.is_directory dir then
        let entries = Sys.readdir dir in
        Array.sort compare entries;
        Array.to_list entries
        |> List.filter_map (fun entry ->
               let path = Filename.concat dir entry in
               if
                 Filename.check_suffix entry ".ml"
                 && (not (Sys.is_directory path))
                 && not (Sys.file_exists (path ^ "i"))
               then
                 Some
                   (Finding.v ~file:path ~line:1 ~rule:"mli-required"
                      "module has no interface file (.mli required in this \
                       directory)")
               else None)
      else [])
    cfg.mli_required

let check_exporters cfg =
  match cfg.event_mli with
  | None -> []
  | Some event_mli -> (
      if not (Sys.file_exists event_mli) then
        [
          Finding.v ~file:event_mli ~line:1 ~rule:"exporter-exhaustive"
            "event interface not found — the exhaustiveness rule lost its \
             anchor";
        ]
      else
        match parse_or_finding event_mli with
        | Error f -> [ f ]
        | Ok ast -> (
            match Exhaustive.event_constructors ast with
            | Error msg ->
                [
                  Finding.v ~file:event_mli ~line:1 ~rule:"exporter-exhaustive"
                    msg;
                ]
            | Ok ctors ->
                List.concat_map
                  (fun file ->
                    if not (Sys.file_exists file) then
                      [
                        Finding.v ~file ~line:1 ~rule:"exporter-exhaustive"
                          "event exporter missing";
                      ]
                    else
                      match parse_or_finding file with
                      | Error f -> [ f ]
                      | Ok ast -> Exhaustive.check_file ~file ~ctors ast)
                  cfg.exporters))

let run cfg =
  let files = source_files cfg.roots in
  let findings = ref [] and inventory = ref [] in
  let add fs = findings := fs :: !findings in
  List.iter
    (fun file ->
      let det = scoped cfg.det_prefixes file in
      let recv = scoped cfg.recv_prefixes file in
      match parse_or_finding file with
      | Error f -> add [ f ]
      | Ok ast ->
          add (Calls.run ~file ~scope:{ Calls.det; recv } ast);
          if det && Filename.check_suffix file ".ml" then begin
            let entries = Mutstate.run ~file ast in
            inventory := entries :: !inventory;
            add (Mutstate.to_findings entries)
          end)
    files;
  add (check_mli_coverage cfg);
  add (check_exporters cfg);
  let fs = List.concat (List.rev !findings) in
  Waiver.apply cfg.waivers fs;
  let stale = Waiver.stale cfg.waivers fs in
  let fs = List.sort Finding.order (fs @ stale) in
  let inventory = List.concat (List.rev !inventory) in
  (* Inventory statuses follow waiver application on their findings. *)
  List.iter
    (fun (e : Mutstate.entry) ->
      if e.Mutstate.e_status = "violation" then
        List.iter
          (fun (f : Finding.t) ->
            if
              f.Finding.rule = "global-mutable" && f.Finding.waived
              && f.Finding.file = e.Mutstate.e_file
              && f.Finding.line = e.Mutstate.e_line
              && f.Finding.symbol = Some e.Mutstate.e_name
            then begin
              e.Mutstate.e_status <- "allowlisted";
              e.Mutstate.e_note <- f.Finding.justification
            end)
          fs)
    inventory;
  { findings = fs; inventory }

let active r = Finding.active r.findings

let findings_json r =
  let fs = List.map Finding.to_json r.findings in
  let inv = List.map Mutstate.entry_to_json r.inventory in
  let n = List.length r.findings and a = List.length (active r) in
  Printf.sprintf
    "{\"tool\":\"tm2c-lint\",\"version\":1,\"summary\":{\"total\":%d,\"active\":%d,\"waived\":%d},\"findings\":[%s],\"inventory\":[%s]}\n"
    n a (n - a) (String.concat "," fs) (String.concat "," inv)

let inventory_json r =
  Printf.sprintf "{\"tool\":\"tm2c-lint\",\"version\":1,\"inventory\":[%s]}\n"
    (String.concat "," (List.map Mutstate.entry_to_json r.inventory))

let write_file path content =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc content)
