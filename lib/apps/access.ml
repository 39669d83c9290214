open Tm2c_core

type t = {
  read : Types.addr -> int;
  write : Types.addr -> int -> unit;
  compute : int -> unit;
}

let of_tx ctx =
  { read = Tx.read ctx; write = Tx.write ctx; compute = Tx.compute ctx }

let direct env ~core =
  {
    read = (fun addr -> Tm2c_memory.Shmem.read env.System.shmem ~core addr);
    write = (fun addr v -> Tm2c_memory.Shmem.write env.System.shmem ~core addr v);
    compute = System.app_compute env;
  }
