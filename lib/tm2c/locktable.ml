open Types

type entry = { mutable writer : holder option; mutable readers : holder list }

type t = (addr, entry) Hashtbl.t

(* Start small: a partition of a many-core mesh locks a handful of
   words at a time, and the table grows on demand. *)
let create () = Hashtbl.create 16

let entry t addr =
  match Hashtbl.find_opt t addr with
  | Some e -> e
  | None ->
      let e = { writer = None; readers = [] } in
      Hashtbl.add t addr e;
      e

let find t addr = Hashtbl.find_opt t addr

let gc t addr e =
  match e with { writer = None; readers = [] } -> Hashtbl.remove t addr | _ -> ()

(* The reader lists are copied only when they change: a grant to a
   core not yet in the list conses onto it, and a release or
   revocation that matches nobody leaves it as it is. *)
let rec drop_core core = function
  | [] -> []
  | r :: rest when r.h_core = core -> drop_core core rest
  | r :: rest -> r :: drop_core core rest

let rec has_core core = function
  | [] -> false
  | r :: rest -> r.h_core = core || has_core core rest

let rec has_holder core attempt = function
  | [] -> false
  | r :: rest -> (r.h_core = core && r.h_attempt = attempt) || has_holder core attempt rest

let add_reader t addr h =
  let e = entry t addr in
  let rs = e.readers in
  e.readers <- h :: (if has_core h.h_core rs then drop_core h.h_core rs else rs)

let remove_reader t addr ~core ~attempt =
  match Hashtbl.find_opt t addr with
  | None -> ()
  | Some e ->
      if has_holder core attempt e.readers then e.readers <- drop_core core e.readers;
      gc t addr e

let revoke_reader t addr ~core =
  match Hashtbl.find_opt t addr with
  | None -> ()
  | Some e ->
      if has_core core e.readers then e.readers <- drop_core core e.readers;
      gc t addr e

let set_writer t addr h =
  let e = entry t addr in
  e.writer <- Some h

let clear_writer t addr ~core ~attempt =
  match Hashtbl.find_opt t addr with
  | None -> ()
  | Some e -> (
      match e.writer with
      | Some w when w.h_core = core && w.h_attempt = attempt ->
          e.writer <- None;
          gc t addr e
      | Some _ | None -> ())

let revoke_writer t addr =
  match Hashtbl.find_opt t addr with
  | None -> ()
  | Some e ->
      e.writer <- None;
      gc t addr e

let readers_excluding e ~core = List.filter (fun r -> r.h_core <> core) e.readers

let iter t f = Tm2c_engine.Det.iter f t

let n_locked t = Hashtbl.length t

let check_invariants t =
  Tm2c_engine.Det.iter
    (fun addr e ->
      (match e with
      | { writer = None; readers = [] } ->
          invalid_arg (Printf.sprintf "Locktable: empty entry retained at %d" addr)
      | _ -> ());
      let cores = List.map (fun r -> r.h_core) e.readers in
      let sorted = List.sort_uniq compare cores in
      if List.length sorted <> List.length cores then
        invalid_arg (Printf.sprintf "Locktable: duplicate reader core at %d" addr))
    t
