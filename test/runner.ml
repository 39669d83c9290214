(* Alcotest pads the suite column to the longest suite name in a run and
   truncates each test name to the columns left of it (80 when stdout is
   not a terminal).  Every runner narrows its line by the gap between its
   own longest suite name and the longest across all runners
   ("integration", in main.exe), so a test prints under the same
   truncated name whichever runner holds it.  An explicit
   ALCOTEST_COLUMNS is left alone. *)

let widest_suite = String.length "integration"

let run name suites =
  let longest =
    List.fold_left (fun m (s, _) -> max m (String.length s)) 0 suites
  in
  if Sys.getenv_opt "ALCOTEST_COLUMNS" = None then
    Unix.putenv "ALCOTEST_COLUMNS"
      (string_of_int (80 - (widest_suite - longest)));
  Alcotest.run name suites
