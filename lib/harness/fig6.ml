(* Section 5.4 — the MapReduce application: Figs. 6(a) and 6(b).
   Input sizes are scaled down from the paper's 256 MB-2 GB to
   KB/MB-range synthetic text (see DESIGN.md); durations scale
   linearly with input size, so the speedup shapes carry over. *)

open Tm2c_core
open Tm2c_apps

(* One DTM core: the transactional load (chunk allocation + letter
   merges) is low (Section 5.4). *)
let parallel_run ex ?(chunk_kb = 8) ~size_kb ~total () =
  snd
    (Exp.run ex (Exp.config ~service:1 ~total ()) (fun t ->
         let mr =
           Mapreduce.create t ~seed:7 ~input_bytes:(size_kb * 1024)
             ~chunk_bytes:(chunk_kb * 1024)
         in
         fun () ->
           let r =
             Workload.run_to_completion t (fun _core ctx _prng -> Mapreduce.worker ctx mr)
           in
           assert (Mapreduce.histogram mr = Mapreduce.expected_histogram mr);
           r))

let parallel_duration_ms ex ?chunk_kb ~size_kb ~total () =
  (parallel_run ex ?chunk_kb ~size_kb ~total ()).Workload.duration_ms

(* The sequential baseline runs no driver, so it is neither exported
   nor checked. *)
let sequential_duration_ms ?(chunk_kb = 8) ~size_kb () =
  let cfg = Exp.config ~service:1 ~total:2 () in
  let t = Runtime.create cfg in
  let mr =
    Mapreduce.create t ~seed:7 ~input_bytes:(size_kb * 1024)
      ~chunk_bytes:(chunk_kb * 1024)
  in
  let env = Runtime.env t in
  let core = (Runtime.app_cores t).(0) in
  Runtime.spawn_app t core (fun () -> Mapreduce.sequential env ~core mr);
  let _ = Runtime.run t () in
  Tm2c_engine.Sim.now (Runtime.sim t) /. 1e6

let fig6a_cores = [ 2; 4; 8; 16; 32; 48 ]

(* Fig. 6(a): duration vs number of cores for three input sizes. *)
let fig6a (ex : Exp.t) =
  let sizes = ex.scale.mr_sizes_kb in
  Exp.print_table
    ~title:"Fig 6(a) - MapReduce duration vs cores (ms; paper used 256MB-1GB, scaled)"
    ~header:("cores" :: List.map (fun kb -> Printf.sprintf "%dKB" kb) sizes)
    (List.map
       (fun n ->
         ( Exp.row_label_int n,
           List.map (fun size_kb -> parallel_duration_ms ex ~size_kb ~total:n ()) sizes ))
       fig6a_cores)

(* Fig. 6(b): speedup over sequential vs input size for 4/8/16 KB
   chunks on 48 cores (1 DTM + 47 app). *)
let fig6b (ex : Exp.t) =
  let sizes = ex.scale.mr_sizes_kb @ [ 2 * List.fold_left max 0 ex.scale.mr_sizes_kb ] in
  Exp.print_table
    ~title:"Fig 6(b) - MapReduce speedup over sequential (48 cores; chunk size sweep)"
    ~header:[ "input"; "4KB"; "8KB"; "16KB" ]
    (List.map
       (fun size_kb ->
         ( Printf.sprintf "%dKB" size_kb,
           List.map
             (fun chunk_kb ->
               let seq = sequential_duration_ms ~chunk_kb ~size_kb () in
               let par = parallel_duration_ms ex ~chunk_kb ~size_kb ~total:48 () in
               Exp.ratio seq par)
             [ 4; 8; 16 ] ))
       sizes)
