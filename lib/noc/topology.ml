type t =
  | Mesh of { cols : int; rows : int; cores_per_tile : int }
  | Flat of { n_cores : int }

let scc = Mesh { cols = 6; rows = 4; cores_per_tile = 2 }

let opteron48 = Flat { n_cores = 48 }

let n_cores = function
  | Mesh { cols; rows; cores_per_tile } -> cols * rows * cores_per_tile
  | Flat { n_cores } -> n_cores

let core_tile t core =
  match t with
  | Mesh { cores_per_tile; _ } -> core / cores_per_tile
  | Flat _ -> 0

let tile_coords t tile =
  match t with
  | Mesh { cols; _ } -> (tile mod cols, tile / cols)
  | Flat _ -> (0, 0)

let hops t a b =
  match t with
  | Flat _ -> 0
  | Mesh _ ->
      let ta = core_tile t a and tb = core_tile t b in
      if ta = tb then 0
      else begin
        let xa, ya = tile_coords t ta and xb, yb = tile_coords t tb in
        abs (xa - xb) + abs (ya - yb)
      end

let n_memory_controllers _ = 4

(* On the SCC the four memory controllers sit at the mesh periphery:
   two on the west edge (rows 0 and 2) and two on the east edge. We
   attach them to the corner-ish tiles (0,0), (5,0), (0,3), (5,3). *)
let mc_tile_coords t mc =
  match t with
  | Flat _ -> (0, 0)
  | Mesh { cols; rows; _ } -> (
      match mc land 3 with
      | 0 -> (0, 0)
      | 1 -> (cols - 1, 0)
      | 2 -> (0, rows - 1)
      | _ -> (cols - 1, rows - 1))

(* Flat coordinate arrays, so that per-access paths read two ints
   instead of building a tuple. *)
let unzip n coords =
  let xs = Array.make n 0 and ys = Array.make n 0 in
  for i = 0 to n - 1 do
    let x, y = coords i in
    xs.(i) <- x;
    ys.(i) <- y
  done;
  (xs, ys)

let core_xy t = unzip (n_cores t) (fun c -> tile_coords t (core_tile t c))

let mc_xy t = unzip (n_memory_controllers t) (mc_tile_coords t)

let hops_to_mc t ~core ~mc =
  match t with
  | Flat _ -> 0
  | Mesh _ ->
      let x, y = tile_coords t (core_tile t core) in
      let mx, my = mc_tile_coords t mc in
      abs (x - mx) + abs (y - my)

let mean_hops t =
  let n = n_cores t in
  let total = ref 0 and pairs = ref 0 in
  for a = 0 to n - 1 do
    for b = 0 to n - 1 do
      if a <> b then begin
        total := !total + hops t a b;
        incr pairs
      end
    done
  done;
  if !pairs = 0 then 0.0 else float_of_int !total /. float_of_int !pairs
