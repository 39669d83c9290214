(* Section 5.1 — the SCC performance-settings table, plus the derived
   latency parameters of each modeled platform. *)

open Tm2c_noc

let run (_ : Exp.t) =
  print_endline "\nSection 5.1 - SCC performance settings (MHz)";
  print_endline "  setting     tile     mesh     DRAM";
  Array.iteri
    (fun i (tile, mesh, dram) -> Printf.printf "%9d %8d %8d %8d\n" i tile mesh dram)
    Platform.scc_settings;
  print_endline "\nModeled platforms:";
  List.iter (fun p -> Format.printf "  %a@." Platform.pp p) Platform.all;
  Printf.printf "  SCC mesh: %d cores, mean hop distance %.2f\n%!"
    (Topology.n_cores Topology.scc) (Topology.mean_hops Topology.scc)
