(* Load generation: one process, one thread per connection.

   Open loop: requests have due times (seeded Poisson ones, drawn by the
   workloads). A connection takes
   the next request in due order as soon as it is free, sleeps until the
   request is due (if it is not yet), sends, and blocks for the reply.
   Every request is timed from its due time, so a request that fell due
   while every connection was busy carries that wait in its latency; the
   generator lag (send time minus due time) is reported on its own. This
   is the difference from pacing each connection with sleeps, where a
   stall pushes later sends back and their wait is never counted.

   Closed loop: each connection sends back to back until the phase
   deadline.

   Replies are kept as raw lines and decoded and validated only after the
   phase, so validation does not compete for the cores during timing. *)

module Framing = Spp_server.Framing

type sample = {
  idx : int;  (** index into the phase's request array *)
  due : float;  (** ms, absolute (closed loop: = sent) *)
  sent : float;
  fin : float;
  reply : (string, string) result;  (** raw reply line, or a transport error *)
}

let now = Spp_util.Clock.now_ms

type conn = { fd : Unix.file_descr; reader : Framing.reader }

let connect addr =
  let fd = Framing.connect ~timeout_ms:5000.0 addr in
  { fd; reader = Framing.reader fd }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let exchange c line =
  match
    Framing.write_line c.fd line;
    Framing.read_line c.reader
  with
  | Some reply -> Ok reply
  | None -> Error "connection closed"
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | exception Framing.Line_too_long -> Error "reply too long"

let sleep_until t =
  let d = t -. now () in
  if d > 0.0 then Thread.delay (d /. 1000.0)

(* [open_loop conns ~lines ~due] sends [lines.(i)] at [due.(i)] ms after
   the start; [due] must be non-decreasing. Returns samples in index
   order. *)
let open_loop conns ~(lines : string array) ~(due : float array) =
  let n = Array.length due in
  let out = Array.make n None in
  let next = Atomic.make 0 in
  let t0 = now () +. 20.0 in
  let worker c () =
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        let due_abs = t0 +. due.(i) in
        sleep_until due_abs;
        let sent = now () in
        let reply = exchange c lines.(i) in
        out.(i) <- Some { idx = i; due = due_abs; sent; fin = now (); reply };
        loop ()
      end
    in
    loop ()
  in
  let threads = Array.map (fun c -> Thread.create (worker c) ()) conns in
  Array.iter Thread.join threads;
  Array.map Option.get out

(* [closed_loop conns ~pick ~duration_ms]: connection [ci]'s [k]-th
   request is [pick ci k]; stops sending at the deadline. Returns the
   samples and the elapsed wall time (start to last reply). *)
let closed_loop conns ~(pick : int -> int -> int * string) ~duration_ms =
  let t0 = now () in
  let stop_at = t0 +. duration_ms in
  let per = Array.make (Array.length conns) [] in
  let worker ci c () =
    let rec loop k =
      if now () < stop_at then begin
        let idx, line = pick ci k in
        let sent = now () in
        let reply = exchange c line in
        per.(ci) <- { idx; due = sent; sent; fin = now (); reply } :: per.(ci);
        loop (k + 1)
      end
    in
    loop 0
  in
  let threads = Array.mapi (fun ci c -> Thread.create (worker ci c) ()) conns in
  Array.iter Thread.join threads;
  let samples = Array.concat (Array.to_list (Array.map (fun l -> Array.of_list (List.rev l)) per)) in
  let last = Array.fold_left (fun acc s -> Float.max acc s.fin) t0 samples in
  (samples, last -. t0)

let latency_ms s = s.fin -. s.due
let lag_ms s = s.sent -. s.due
