open Tm2c_engine
open Tm2c_noc

type t = { sim : Sim.t; platform : Platform.t; regs : int array }

let create sim platform ~count = { sim; platform; regs = Array.make count 0 }

let charge t = Sim.delay t.platform.Platform.tas_ns

let read t ~core:_ ~reg =
  charge t;
  t.regs.(reg)

let write t ~core:_ ~reg v =
  charge t;
  t.regs.(reg) <- v

let tas t ~core:_ ~reg =
  charge t;
  let old = t.regs.(reg) in
  t.regs.(reg) <- 1;
  old = 0

let cas t ~core:_ ~reg ~expect ~repl =
  charge t;
  if t.regs.(reg) = expect then begin
    t.regs.(reg) <- repl;
    true
  end
  else false

let peek t ~reg = t.regs.(reg)

let poke t ~reg v = t.regs.(reg) <- v
