open Tm2c_core
open Tm2c_memory

let step_cycles = 8
let alloc_cycles = 40

(* Layout: [base] holds the head pointer; nodes are [key; next]. *)
type t = { runtime : Runtime.t; base : Types.addr }

type mode = [ `Normal | `Elastic_early | `Elastic_read ]

let elastic_of_mode = function
  | `Normal -> Tx.Enone
  | `Elastic_early -> Tx.Elastic_early
  | `Elastic_read -> Tx.Elastic_read

let create runtime =
  let base = Alloc.alloc (Runtime.alloc runtime) ~words:1 in
  Runtime.host_write runtime base 0;
  { runtime; base }

let locate (a : Access.t) t k =
  let rec walk slot =
    let ptr = a.read slot in
    if ptr = 0 then (slot, 0, 0)
    else begin
      let key = a.read ptr in
      a.compute step_cycles;
      if key >= k then (slot, ptr, key) else walk (ptr + 1)
    end
  in
  walk t.base

let contains_op a t k =
  let _, ptr, key = locate a t k in
  ptr <> 0 && key = k

let add_op (a : Access.t) t k ~node =
  let slot, ptr, key = locate a t k in
  if ptr <> 0 && key = k then false
  else begin
    Runtime.host_write t.runtime node k;
    Runtime.host_write t.runtime (node + 1) ptr;
    a.write slot node;
    true
  end

let remove_op (a : Access.t) t k =
  let slot, ptr, key = locate a t k in
  if ptr = 0 || key <> k then 0
  else begin
    let next = a.read (ptr + 1) in
    a.write slot next;
    (* Also write the removed node's next field (same value): a pure
       conflict marker, so a concurrent operation whose elastic window
       no longer covers [slot] still collides (WAW) with this unlink —
       without it, adjacent removes could both commit and lose one
       update (see the elastic-transaction tests). *)
    a.write (ptr + 1) next;
    ptr
  end

let new_node t = Alloc.alloc (Runtime.alloc t.runtime) ~words:2

let free_node t node = Alloc.free (Runtime.alloc t.runtime) node ~words:2

let tx_contains ~mode ctx t k =
  Tx.atomic ~elastic:(elastic_of_mode mode) ctx (fun () ->
      contains_op (Access.of_tx ctx) t k)

let tx_add ~mode ctx t k =
  Tx.compute ctx alloc_cycles;
  let node = new_node t in
  let added =
    Tx.atomic ~elastic:(elastic_of_mode mode) ctx (fun () ->
        add_op (Access.of_tx ctx) t k ~node)
  in
  if not added then free_node t node;
  added

let tx_remove ~mode ctx t k =
  let removed =
    Tx.atomic ~elastic:(elastic_of_mode mode) ctx (fun () ->
        remove_op (Access.of_tx ctx) t k)
  in
  if removed <> 0 then begin
    free_node t removed;
    true
  end
  else false

let seq_contains env ~core t k = contains_op (Access.direct env ~core) t k

let seq_add env ~core t k =
  let a = Access.direct env ~core in
  a.Access.compute alloc_cycles;
  let node = new_node t in
  let added = add_op a t k ~node in
  if not added then free_node t node;
  added

let seq_remove env ~core t k =
  let removed = remove_op (Access.direct env ~core) t k in
  if removed <> 0 then begin
    free_node t removed;
    true
  end
  else false

(* Host-side helpers. *)

let shmem t = Runtime.shmem t.runtime

let to_list t =
  let sh = shmem t in
  let rec walk ptr acc =
    if ptr = 0 then List.rev acc
    else walk (Shmem.peek sh (ptr + 1)) (Shmem.peek sh ptr :: acc)
  in
  walk (Shmem.peek sh t.base) []

let size t = List.length (to_list t)

let populate t prng ~n ~key_range =
  let sh = shmem t in
  let inserted = ref 0 in
  while !inserted < n do
    let k = Tm2c_engine.Prng.int prng key_range in
    let rec find_slot slot =
      let ptr = Shmem.peek sh slot in
      if ptr = 0 then (slot, 0, 0)
      else if Shmem.peek sh ptr >= k then (slot, ptr, Shmem.peek sh ptr)
      else find_slot (ptr + 1)
    in
    let slot, ptr, key = find_slot t.base in
    if not (ptr <> 0 && key = k) then begin
      let node = new_node t in
      Runtime.host_write t.runtime node k;
      Runtime.host_write t.runtime (node + 1) ptr;
      Runtime.host_write t.runtime slot node;
      incr inserted
    end
  done

let check_invariants t =
  let rec sorted = function
    | [] | [ _ ] -> true
    | x :: (y :: _ as rest) -> x < y && sorted rest
  in
  if not (sorted (to_list t)) then invalid_arg "Linkedlist: not strictly sorted"
