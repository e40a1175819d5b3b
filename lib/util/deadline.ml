type t = { expires_ms : float }  (* absolute, on Clock's monotone timeline *)

let started budget_ms = { expires_ms = Clock.now_ms () +. Float.max 0.0 budget_ms }

let of_request = function
  | None -> None
  | Some budget_ms -> Some (started budget_ms)

let remaining_ms t = Float.max 0.0 (t.expires_ms -. Clock.now_ms ())

(* With no floor, a deadline is expired once nothing remains; with one,
   strictly below the floor — a request holding exactly [floor_ms] is
   still admissible. *)
let expired ?(floor_ms = 0.0) t =
  let left = remaining_ms t in
  if floor_ms > 0.0 then left < floor_ms else left <= 0.0

(* Forwarding re-encodes the *remaining* budget, so the next hop starts
   its own [started] clock from receipt — each hop subtracts exactly the
   time the request spent inside it, with no cross-host clock reads. *)
let forward_ms t = remaining_ms t

let token t = Cancel.with_deadline_ms (remaining_ms t)
