type core = {
  mutable commits : int;
  mutable aborts_raw : int;
  mutable aborts_waw : int;
  mutable aborts_war : int;
  mutable aborts_status : int;
  mutable ops : int;
  mutable tx_reads : int;
  mutable tx_writes : int;
  mutable effective_ns : float;
  mutable lifespan_ns : float;
  mutable max_attempts : int;
}

type t = core array

let make_core () =
  {
    commits = 0;
    aborts_raw = 0;
    aborts_waw = 0;
    aborts_war = 0;
    aborts_status = 0;
    ops = 0;
    tx_reads = 0;
    tx_writes = 0;
    effective_ns = 0.0;
    lifespan_ns = 0.0;
    max_attempts = 0;
  }

let create ~n_cores = Array.init n_cores (fun _ -> make_core ())

let core t i = t.(i)

let aborts c = c.aborts_raw + c.aborts_waw + c.aborts_war + c.aborts_status

let sum t f = Array.fold_left (fun acc c -> acc + f c) 0 t

let total_commits t = sum t (fun c -> c.commits)

let total_aborts t = sum t aborts

let total_ops t = sum t (fun c -> c.ops)

let commit_rate t =
  let commits = total_commits t and ab = total_aborts t in
  if commits + ab = 0 then Float.nan
  else 100.0 *. float_of_int commits /. float_of_int (commits + ab)

let worst_attempts t = Array.fold_left (fun acc c -> max acc c.max_attempts) 0 t

let reset t =
  Array.iter
    (fun c ->
      c.commits <- 0;
      c.aborts_raw <- 0;
      c.aborts_waw <- 0;
      c.aborts_war <- 0;
      c.aborts_status <- 0;
      c.ops <- 0;
      c.tx_reads <- 0;
      c.tx_writes <- 0;
      c.effective_ns <- 0.0;
      c.lifespan_ns <- 0.0;
      c.max_attempts <- 0)
    t
