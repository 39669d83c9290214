(* Deterministic fault-injection plans for the simulated substrate.

   A [plan] is pure data: per-link message perturbations (drop,
   duplication, bounded delay spikes, bounded reordering), DS-server
   stall windows, crash-stop points for chosen app cores, crash-stop
   points for DS-lock servers, and temporary link partitions. A [t]
   pairs a plan with its own PRNG stream (derived via
   [Prng.split_label], so the stream's mere existence never perturbs
   baseline schedules) plus counters and the crashed-core tables. An
   empty plan draws nothing from the PRNG, which is what makes "faults
   enabled, plan empty" bit-for-bit identical to a run that never
   heard of faults.

   The network applies [link_action] and [partition_release] per
   message; the DTM service loop consults [stall_until] and
   [is_server_crashed]; the transaction layer polls [crash_due] at
   operation boundaries; the runtime schedules [mark_server_crashed]
   at the planned instants. Trace emission lives above this layer: the
   runtime installs [on_drop]/[on_dup] callbacks since this library
   cannot see the tm2c event type. *)

open Tm2c_engine

type link_fault = {
  drop_pct : float;  (* probability a message is silently lost *)
  dup_pct : float;  (* probability a message is delivered twice *)
  delay_pct : float;  (* probability of a delay spike *)
  delay_ns : float;  (* size of the spike, virtual ns *)
  reorder_pct : float;  (* probability of a reordering spike *)
  reorder_ns : float;  (* bound of the uniform extra delay drawn when
                          a reorder fires: enough to let later
                          messages overtake this one *)
}

let no_link =
  {
    drop_pct = 0.0;
    dup_pct = 0.0;
    delay_pct = 0.0;
    delay_ns = 0.0;
    reorder_pct = 0.0;
    reorder_ns = 0.0;
  }

type stall = {
  stall_core : int;  (* DS-server core that stops serving *)
  stall_from_ns : float;
  stall_until_ns : float;
}

type crash = {
  crash_core : int;  (* app core that crash-stops *)
  crash_at_ns : float;  (* first operation boundary at/after this dies *)
}

type scrash = {
  scrash_core : int;  (* DS-lock server core that crash-stops *)
  scrash_at_ns : float;  (* it stops serving at exactly this instant *)
}

type partition = {
  part_a : int;  (* one endpoint of the partitioned link *)
  part_b : int;  (* the other endpoint (both directions are cut) *)
  part_from_ns : float;
  part_until_ns : float;
}

type plan = {
  link : link_fault option;
  stalls : stall list;
  crashes : crash list;
  scrashes : scrash list;
  parts : partition list;
}

let empty = { link = None; stalls = []; crashes = []; scrashes = []; parts = [] }

let plan_is_empty p =
  p.link = None && p.stalls = [] && p.crashes = [] && p.scrashes = []
  && p.parts = []

type counters = {
  mutable dropped : int;
  mutable duplicated : int;
  mutable delayed : int;
  mutable reordered : int;  (* reordering spikes injected *)
  mutable partitioned : int;  (* messages held by a link partition *)
  mutable resends : int;  (* requester-side timeout resends *)
  mutable absorbed : int;  (* duplicate requests answered from cache *)
  mutable leases_reclaimed : int;
  mutable crashes : int;
  mutable server_crashes : int;  (* DS-lock servers crash-stopped *)
  mutable replicated : int;  (* lock-table mutations shipped to backups *)
  mutable failovers : int;  (* epoch bumps promoting a backup *)
  mutable stale_rejections : int;  (* stale-epoch requests refused *)
  mutable cache_evicted : int;  (* response-cache entries expired *)
}

type t = {
  mutable plan : plan;
  prng : Prng.t;
  counters : counters;
  crashed : bool array;
  scrashed : bool array;
  mutable on_drop : src:int -> dst:int -> unit;
  mutable on_dup : src:int -> dst:int -> unit;
}

let create ?(plan = empty) ~prng ~n_cores () =
  {
    plan;
    prng;
    counters =
      {
        dropped = 0;
        duplicated = 0;
        delayed = 0;
        reordered = 0;
        partitioned = 0;
        resends = 0;
        absorbed = 0;
        leases_reclaimed = 0;
        crashes = 0;
        server_crashes = 0;
        replicated = 0;
        failovers = 0;
        stale_rejections = 0;
        cache_evicted = 0;
      };
    crashed = Array.make n_cores false;
    scrashed = Array.make n_cores false;
    on_drop = (fun ~src:_ ~dst:_ -> ());
    on_dup = (fun ~src:_ ~dst:_ -> ());
  }

let set_plan t plan = t.plan <- plan

let plan t = t.plan

let counters t = t.counters

let injected t =
  t.counters.dropped + t.counters.duplicated + t.counters.delayed
  + t.counters.reordered + t.counters.partitioned + t.counters.crashes
  + t.counters.server_crashes

type action = Deliver | Drop | Duplicate | Delay of float

let link_active t = t.plan.link <> None

(* One PRNG draw per message, shared across the perturbations so the
   schedule consumes a fixed amount of randomness per send — except a
   reorder, which draws a second value for the spike size (plans with
   reordering are explicitly perturbing). *)
let link_action t ~src ~dst =
  match t.plan.link with
  | None -> Deliver
  | Some lf ->
      let u = Prng.float t.prng in
      if u < lf.drop_pct then begin
        t.counters.dropped <- t.counters.dropped + 1;
        t.on_drop ~src ~dst;
        Drop
      end
      else if u < lf.drop_pct +. lf.dup_pct then begin
        t.counters.duplicated <- t.counters.duplicated + 1;
        t.on_dup ~src ~dst;
        Duplicate
      end
      else if u < lf.drop_pct +. lf.dup_pct +. lf.delay_pct then begin
        t.counters.delayed <- t.counters.delayed + 1;
        Delay lf.delay_ns
      end
      else if u < lf.drop_pct +. lf.dup_pct +. lf.delay_pct +. lf.reorder_pct
      then begin
        t.counters.reordered <- t.counters.reordered + 1;
        Delay (Prng.float t.prng *. lf.reorder_ns)
      end
      else Deliver

let stall_until t ~core ~now =
  (* Checked on every request pickup; with no stall windows planned the
     fold's accumulator closure must not even be allocated. *)
  match t.plan.stalls with
  | [] -> None
  | stalls ->
      List.fold_left
        (fun acc s ->
          if
            s.stall_core = core && now >= s.stall_from_ns
            && now < s.stall_until_ns
          then
            match acc with
            | Some e when e >= s.stall_until_ns -> acc
            | _ -> Some s.stall_until_ns
          else acc)
        None stalls

(* A partition holds messages on the cut link (both directions) until
   the window closes; it never drops them, so delivery stays eventual
   and a healed zombie server sees its queued, now stale-epoch,
   requests. Returns the latest heal instant among the windows
   covering this link at [now]. Pure data lookup, no PRNG draw. *)
let partition_release t ~src ~dst ~now =
  match t.plan.parts with
  | [] -> None
  | parts ->
      List.fold_left
        (fun acc p ->
          if
            ((p.part_a = src && p.part_b = dst)
            || (p.part_a = dst && p.part_b = src))
            && now >= p.part_from_ns && now < p.part_until_ns
          then
            match acc with
            | Some e when e >= p.part_until_ns -> acc
            | _ -> Some p.part_until_ns
          else acc)
        None parts

let count_partitioned t = t.counters.partitioned <- t.counters.partitioned + 1

let crash_due t ~core ~now =
  (core < Array.length t.crashed)
  && (not t.crashed.(core))
  && List.exists
       (fun c -> c.crash_core = core && now >= c.crash_at_ns)
       t.plan.crashes

let mark_crashed t ~core =
  if core < Array.length t.crashed && not t.crashed.(core) then begin
    t.crashed.(core) <- true;
    t.counters.crashes <- t.counters.crashes + 1
  end

let is_crashed t ~core = core < Array.length t.crashed && t.crashed.(core)

let mark_server_crashed t ~core =
  if core < Array.length t.scrashed && not t.scrashed.(core) then begin
    t.scrashed.(core) <- true;
    t.counters.server_crashes <- t.counters.server_crashes + 1
  end

let is_server_crashed t ~core =
  core < Array.length t.scrashed && t.scrashed.(core)

let on_drop t f = t.on_drop <- f

let on_dup t f = t.on_dup <- f

(* Compact spec syntax, round-tripping through [of_spec]:
     none
     drop=0.01,dup=0.02,delay=0.05@2000,reorder=0.1@3000,
       stall=8@1e6+5e5,crash=3@2e6,scrash=4@3e5,part=1-4@1e5+2e5
   Multiple stall=/crash=/scrash=/part= components accumulate; the
   link knobs merge into one [link_fault]. *)
(* [%g] writes big values as "1e+06"; the '+' would collide with the
   stall window's from+duration separator, so normalize exponents to
   the sign-free "1e6" form. *)
let fmt_g f =
  let s = Printf.sprintf "%g" f in
  match String.index_opt s 'e' with
  | None -> s
  | Some i ->
      let mantissa = String.sub s 0 i in
      let e = int_of_string (String.sub s (i + 1) (String.length s - i - 1)) in
      Printf.sprintf "%se%d" mantissa e

let to_spec p =
  if plan_is_empty p then "none"
  else begin
    let b = Buffer.create 64 in
    let add s =
      if Buffer.length b > 0 then Buffer.add_char b ',';
      Buffer.add_string b s
    in
    (match p.link with
    | None -> ()
    | Some lf ->
        if lf.drop_pct > 0.0 then add (Printf.sprintf "drop=%s" (fmt_g lf.drop_pct));
        if lf.dup_pct > 0.0 then add (Printf.sprintf "dup=%s" (fmt_g lf.dup_pct));
        if lf.delay_pct > 0.0 then
          add (Printf.sprintf "delay=%s@%s" (fmt_g lf.delay_pct) (fmt_g lf.delay_ns));
        if lf.reorder_pct > 0.0 then
          add
            (Printf.sprintf "reorder=%s@%s" (fmt_g lf.reorder_pct)
               (fmt_g lf.reorder_ns)));
    List.iter
      (fun s ->
        add
          (Printf.sprintf "stall=%d@%s+%s" s.stall_core (fmt_g s.stall_from_ns)
             (fmt_g (s.stall_until_ns -. s.stall_from_ns))))
      p.stalls;
    List.iter
      (fun c ->
        add (Printf.sprintf "crash=%d@%s" c.crash_core (fmt_g c.crash_at_ns)))
      p.crashes;
    List.iter
      (fun c ->
        add (Printf.sprintf "scrash=%d@%s" c.scrash_core (fmt_g c.scrash_at_ns)))
      p.scrashes;
    List.iter
      (fun w ->
        add
          (Printf.sprintf "part=%d-%d@%s+%s" w.part_a w.part_b
             (fmt_g w.part_from_ns)
             (fmt_g (w.part_until_ns -. w.part_from_ns))))
      p.parts;
    Buffer.contents b
  end

let known_keys = "drop, dup, delay, reorder, stall, crash, scrash, part"

let of_spec spec =
  let spec = String.trim spec in
  if spec = "" || spec = "none" then Ok empty
  else begin
    let link = ref no_link in
    let link_set = ref false in
    let stalls = ref [] and crashes = ref [] in
    let scrashes = ref [] and parts = ref [] in
    let err = ref None in
    let fail msg = if !err = None then err := Some msg in
    let bad_value part ~expected =
      fail
        (Printf.sprintf
           "bad value in fault component %S (expected %s; probabilities in [0, 1], \
            times finite and >= 0)"
           part expected)
    in
    (* Malformed and out-of-range values read as NaN, which every
       component rejects. *)
    let prob s =
      match float_of_string_opt s with
      | Some p when p >= 0.0 && p <= 1.0 -> p
      | _ -> Float.nan
    in
    let time s =
      match float_of_string_opt s with
      | Some t when t >= 0.0 && t < Float.infinity -> t
      | _ -> Float.nan
    in
    let int_of s = match int_of_string_opt s with Some i when i >= 0 -> i | _ -> -1 in
    (* The first '@' splits "P@NS"-style values. *)
    let at_split s =
      match String.index_opt s '@' with
      | None -> None
      | Some j ->
          Some (String.sub s 0 j, String.sub s (j + 1) (String.length s - j - 1))
    in
    (* The window separator is the first '+' that is not an exponent
       sign ("1e+06+5e5" still parses as from=1e6, dur=5e5). *)
    let window_split window =
      let n = String.length window in
      let rec go j =
        if j >= n then None
        else if
          window.[j] = '+' && j > 0
          && window.[j - 1] <> 'e'
          && window.[j - 1] <> 'E'
        then
          let from = time (String.sub window 0 j)
          and dur = time (String.sub window (j + 1) (n - j - 1)) in
          (* The window's end must be finite too. *)
          Some (from, if from +. dur < Float.infinity then dur else Float.nan)
        else go (j + 1)
      in
      go 0
    in
    List.iter
      (fun part ->
        match String.index_opt part '=' with
        | None ->
            fail
              (Printf.sprintf
                 "bad fault component %S (expected key=value; keys: %s)" part
                 known_keys)
        | Some i -> (
            let key = String.sub part 0 i in
            let v = String.sub part (i + 1) (String.length part - i - 1) in
            match key with
            | "drop" ->
                let p = prob v in
                if Float.is_nan p then bad_value part ~expected:"drop=P"
                else (link := { !link with drop_pct = p }; link_set := true)
            | "dup" ->
                let p = prob v in
                if Float.is_nan p then bad_value part ~expected:"dup=P"
                else (link := { !link with dup_pct = p }; link_set := true)
            | "delay" -> (
                match at_split v with
                | Some (p, ns) ->
                    let p = prob p and ns = time ns in
                    if Float.is_nan p || Float.is_nan ns then
                      bad_value part ~expected:"delay=P@NS"
                    else (link := { !link with delay_pct = p; delay_ns = ns }; link_set := true)
                | None -> bad_value part ~expected:"delay=P@NS")
            | "reorder" -> (
                match at_split v with
                | Some (p, ns) ->
                    let p = prob p and ns = time ns in
                    if Float.is_nan p || Float.is_nan ns then
                      bad_value part ~expected:"reorder=P@NS"
                    else (
                      link := { !link with reorder_pct = p; reorder_ns = ns };
                      link_set := true)
                | None -> bad_value part ~expected:"reorder=P@NS")
            | "stall" -> (
                match at_split v with
                | Some (core, window) -> (
                    match window_split window with
                    | Some (from, dur) ->
                        let core = int_of core in
                        if core < 0 || Float.is_nan from || Float.is_nan dur then
                          bad_value part ~expected:"stall=CORE@FROM+DUR"
                        else
                          stalls :=
                            {
                              stall_core = core;
                              stall_from_ns = from;
                              stall_until_ns = from +. dur;
                            }
                            :: !stalls
                    | None -> bad_value part ~expected:"stall=CORE@FROM+DUR")
                | None -> bad_value part ~expected:"stall=CORE@FROM+DUR")
            | "crash" -> (
                match at_split v with
                | Some (core, at) ->
                    let core = int_of core and at = time at in
                    if core < 0 || Float.is_nan at then
                      bad_value part ~expected:"crash=CORE@AT"
                    else crashes := { crash_core = core; crash_at_ns = at } :: !crashes
                | None -> bad_value part ~expected:"crash=CORE@AT")
            | "scrash" -> (
                match at_split v with
                | Some (core, at) ->
                    let core = int_of core and at = time at in
                    if core < 0 || Float.is_nan at then
                      bad_value part ~expected:"scrash=CORE@AT"
                    else
                      scrashes :=
                        { scrash_core = core; scrash_at_ns = at } :: !scrashes
                | None -> bad_value part ~expected:"scrash=CORE@AT")
            | "part" -> (
                let expected = "part=A-B@FROM+DUR" in
                match at_split v with
                | Some (link_s, window) -> (
                    let endpoints =
                      match String.index_opt link_s '-' with
                      | None -> None
                      | Some j ->
                          let a = int_of (String.sub link_s 0 j) in
                          let b =
                            int_of
                              (String.sub link_s (j + 1)
                                 (String.length link_s - j - 1))
                          in
                          if a < 0 || b < 0 then None else Some (a, b)
                    in
                    match (endpoints, window_split window) with
                    | Some (a, b), Some (from, dur)
                      when (not (Float.is_nan from)) && not (Float.is_nan dur) ->
                        parts :=
                          {
                            part_a = a;
                            part_b = b;
                            part_from_ns = from;
                            part_until_ns = from +. dur;
                          }
                          :: !parts
                    | _ -> bad_value part ~expected)
                | None -> bad_value part ~expected)
            | _ ->
                fail
                  (Printf.sprintf "unknown fault key %S in %S (expected one of: %s)"
                     key part known_keys)))
      (String.split_on_char ',' spec);
    match !err with
    | Some e -> Error e
    | None ->
        Ok
          {
            link = (if !link_set then Some !link else None);
            stalls = List.rev !stalls;
            crashes = List.rev !crashes;
            scrashes = List.rev !scrashes;
            parts = List.rev !parts;
          }
  end
