(** Cooperative cancellation tokens.

    Long-running solvers (exact branch and bound, column generation, the
    APTAS pipeline) accept a token and poll it at their natural loop
    boundaries; the engine's portfolio runner hands every racer a token
    whose deadline is the run's wall-clock budget. Tokens are domain-safe:
    one domain may {!cancel} while others poll.

    A token trips when it is cancelled explicitly {e or} its deadline
    passes; once tripped it stays tripped. *)

type t

(** Raised by {!check} on a tripped token. Solvers let it escape; the
    portfolio runner maps it to a [Timed_out] outcome. *)
exception Cancelled

(** A token that never trips. The default everywhere, so direct library
    calls behave exactly as before the engine existed. *)
val never : t

(** [create ()] is a token with no deadline, tripped only by {!cancel}. *)
val create : unit -> t

(** [with_deadline_ms ms] trips once [ms] milliseconds of wall-clock time
    have elapsed (immediately for [ms <= 0]). *)
val with_deadline_ms : float -> t

(** [cancel t] trips the token. Idempotent; no effect on {!never}. *)
val cancel : t -> unit

val cancelled : t -> bool

(** [check t] raises {!Cancelled} once the token has tripped. It reads the
    cancel flag at every call but the clock only at the token's first call
    and every 64th after it, so a passed deadline is noticed at most 64
    polls late (never early), and a poll that notices it latches the flag:
    every later [check], on any domain, raises at once. An explicit
    {!cancel} is noticed at the next poll. Each call also bumps the
    token's poll count (except on {!never}, whose single shared cache line
    must stay read-only on the hot path). {!cancelled} and
    {!remaining_ms} still read the clock at every call. *)
val check : t -> unit

(** [polls t] is the number of {!check} calls made against [t] so far —
    a cheap measure of how often a solver reached a cancellation point,
    surfaced as the [spp_cancel_polls_total] metric. Always 0 for
    {!never}. *)
val polls : t -> int

(** [remaining_ms t] is the wall-clock budget left: [None] when unlimited,
    [Some 0.] once tripped. *)
val remaining_ms : t -> float option
