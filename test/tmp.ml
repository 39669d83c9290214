(* Temporary files for the tests. None of them is ever reopened with
   truncation: on ext4, closing a file that was truncated and then
   written costs tens of milliseconds (likely the auto_da_alloc flush),
   against a few microseconds for a fresh file. A qcheck property
   writing one file per case paid that on every case. *)

(* [with_written ~suffix write read]: [write] fills a fresh file through
   its channel; once the channel is closed, [read] gets what [write]
   returned and the file's path. The file is removed afterwards. *)
let with_written ~suffix write read =
  let path, oc = Filename.open_temp_file "tm2c" suffix in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let v = Fun.protect ~finally:(fun () -> close_out oc) (fun () -> write oc) in
      read v path)

(* [with_path ~suffix f] gives [f] the path of a file that does not exist
   yet, for writers that open by name. It lives in a fresh directory,
   removed afterwards with whatever [f] left in it. *)
let with_path ~suffix f =
  let dir = Filename.temp_dir "tm2c" "" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun name -> Sys.remove (Filename.concat dir name)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f (Filename.concat dir ("file" ^ suffix)))
