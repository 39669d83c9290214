type 'a state = Empty of Sim.spot list | Filled of 'a

type 'a t = { mutable state : 'a state }

let create () = { state = Empty [] }

let fill iv v =
  match iv.state with
  | Filled _ -> invalid_arg "Ivar.fill: already filled"
  | Empty readers ->
      iv.state <- Filled v;
      (* Wake in registration order. *)
      List.iter Sim.wake (List.rev readers)

let read iv =
  match iv.state with
  | Filled v -> v
  | Empty readers -> (
      let s = Sim.spot (Sim.current ()) in
      iv.state <- Empty (s :: readers);
      Sim.park s;
      match iv.state with Filled v -> v | Empty _ -> assert false)

let try_read iv = match iv.state with Filled v -> Some v | Empty _ -> None

let is_filled iv = match iv.state with Filled _ -> true | Empty _ -> false
