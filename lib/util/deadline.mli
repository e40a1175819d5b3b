(** Per-hop deadline arithmetic for propagated request budgets.

    A deadline travels on the wire as a {e relative} budget ([deadline_ms]
    — "this many milliseconds of my patience remain"), never as an
    absolute timestamp: the hops run on different hosts with different
    clocks. Each hop pins the budget to its own monotone {!Clock} at
    receipt ({!started}), measures everything it does against that —
    routing, coalescing, queue wait, dispatch — and re-encodes whatever
    is left ({!forward_ms}) when it passes the request on. Elapsed time
    is thereby subtracted exactly once per hop, by the hop that spent it.

    All reads go through {!Clock.now_ms}, so deadline logic is testable
    under {!Clock.freeze}/{!Clock.advance} virtual time without sleeping. *)

type t

(** [started budget_ms] pins a deadline [budget_ms] from now (clamped at
    0) on the monotone clock. *)
val started : float -> t

(** [of_request deadline_ms] — [started] on the wire field, [None]
    passing through (an unbounded request stays unbounded). *)
val of_request : float option -> t option

(** Milliseconds left, never negative. *)
val remaining_ms : t -> float

(** [expired ?floor_ms t] — true once less than [floor_ms] (default 0)
    remains: the "won't make it" test. A request below the floor cannot
    complete in time, so burning a worker on it only steals capacity
    from requests that still can. *)
val expired : ?floor_ms:float -> t -> bool

(** The relative budget to put on the wire for the next hop: the
    remaining time as measured here. *)
val forward_ms : t -> float

(** A {!Cancel} token tripping when the deadline does — how queue wait
    and solver time are charged against the budget. *)
val token : t -> Cancel.t
