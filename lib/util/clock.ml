(* Two sources behind one monotone clamp: the wall clock, and — when a
   test or simulation freezes time — a virtual cell advanced explicitly.
   The clamp is shared, so switching sources can never make [now_ms] go
   backwards within a process. *)

let last = Atomic.make 0.0

let rec clamp t =
  let prev = Atomic.get last in
  if t <= prev then prev
  else if Atomic.compare_and_set last prev t then t
  else clamp t

let virtual_mode = Atomic.make false
let virtual_ms = Atomic.make 0.0

let wall_ms () = Unix.gettimeofday () *. 1000.0

let now_ms () =
  if Atomic.get virtual_mode then clamp (Atomic.get virtual_ms) else clamp (wall_ms ())

let elapsed_ms since = Float.max 0.0 (now_ms () -. since)

let frozen () = Atomic.get virtual_mode

let freeze () =
  Atomic.set virtual_ms (Float.max (now_ms ()) (Atomic.get last));
  Atomic.set virtual_mode true;
  ignore (clamp (Atomic.get virtual_ms))

let advance ms =
  if not (Atomic.get virtual_mode) then invalid_arg "Clock.advance: clock is not frozen";
  if ms < 0.0 then invalid_arg "Clock.advance: negative step";
  let rec bump () =
    let cur = Atomic.get virtual_ms in
    if Atomic.compare_and_set virtual_ms cur (cur +. ms) then cur +. ms else bump ()
  in
  clamp (bump ())

let thaw () = Atomic.set virtual_mode false
