type t = {
  flag : bool Atomic.t;
  deadline_ms : float;  (** absolute, [infinity] = none *)
  polls : int Atomic.t;
}

exception Cancelled

let never = { flag = Atomic.make false; deadline_ms = infinity; polls = Atomic.make 0 }

let create () = { flag = Atomic.make false; deadline_ms = infinity; polls = Atomic.make 0 }

let with_deadline_ms ms =
  { flag = Atomic.make false;
    deadline_ms = Clock.now_ms () +. Float.max 0.0 ms;
    polls = Atomic.make 0 }

let cancel t = if t != never then Atomic.set t.flag true

let cancelled t =
  Atomic.get t.flag
  || (t.deadline_ms < infinity && Clock.now_ms () >= t.deadline_ms)

(* [never] is a single shared token polled from every domain at once; counting
   its polls would put one contended cache line on every solver's hot loop for
   a number nobody reads, and it never trips. Real tokens are per-request, so
   the count is cheap. The flag is read at every poll, the clock only at a
   token's first poll and every [clock_every]th after it; a poll that finds
   the deadline passed latches the flag, so every later poll on any domain
   raises without reading the clock. [clock_every] is a power of two. *)
let clock_every = 64

let check t =
  if t != never then begin
    let n = Atomic.fetch_and_add t.polls 1 in
    if Atomic.get t.flag then raise Cancelled;
    if n land (clock_every - 1) = 0 && t.deadline_ms < infinity && Clock.now_ms () >= t.deadline_ms
    then begin
      Atomic.set t.flag true;
      raise Cancelled
    end
  end

let polls t = Atomic.get t.polls

let remaining_ms t =
  if Atomic.get t.flag then Some 0.0
  else if t.deadline_ms = infinity then None
  else Some (Float.max 0.0 (t.deadline_ms -. Clock.now_ms ()))
