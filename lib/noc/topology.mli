(** On-chip topology model.

    The SCC layout is a 6x4 two-dimensional mesh of tiles, two P54C
    cores per tile, with XY (dimension-ordered) routing, and four DDR3
    memory controllers attached at the corner columns of the mesh. The
    [Flat] topology models a cache-coherent multi-core where messages
    do not traverse a mesh (core-to-core channels live in the cache
    hierarchy). *)

type t =
  | Mesh of { cols : int; rows : int; cores_per_tile : int }
      (** SCC-style mesh: tile [(x, y)] with [x < cols], [y < rows]. *)
  | Flat of { n_cores : int }

(** The Intel SCC: 6x4 mesh, 2 cores per tile, 48 cores. *)
val scc : t

(** A flat 48-core cache-coherent machine (4x12-core Opteron box). *)
val opteron48 : t

val n_cores : t -> int

(** Tile index of a core (cores [2t] and [2t+1] live on tile [t] for
    the mesh; a flat topology places every core on tile 0). *)
val core_tile : t -> int -> int

(** Mesh coordinates of a tile. *)
val tile_coords : t -> int -> int * int

(** Number of mesh hops (XY routing: |dx| + |dy|) between the tiles of
    two cores. 0 on flat topologies and for same-tile cores. *)
val hops : t -> int -> int -> int

(** Number of memory controllers (4 on the SCC, modeled as 4 NUMA
    nodes on the flat multi-core). *)
val n_memory_controllers : t -> int

(** Mesh hops from a core's tile to a memory controller's attachment
    point; 0 on flat topologies (NUMA cost is folded into the memory
    latency model). *)
val hops_to_mc : t -> core:int -> mc:int -> int

(** Per-core tile coordinates as two flat arrays [(xs, ys)]: core [c]
    sits at [(xs.(c), ys.(c))]; all zero on flat topologies. For
    per-access paths that must not build a tuple. *)
val core_xy : t -> int array * int array

(** Memory-controller attachment points as two flat arrays [(xs, ys)],
    indexed by controller, so that [hops_to_mc t ~core ~mc] is
    [|cx - mx| + |cy - my|] over {!core_xy} and these. *)
val mc_xy : t -> int array * int array

(** Average hop count over all ordered core pairs; used by latency
    smoke tests and the calibration notes. *)
val mean_hops : t -> float
