(** Monotonic wall-clock time for deadlines and telemetry, with a
    freezable virtual source for deterministic tests and simulations.

    [Unix.gettimeofday] clamped to be non-decreasing across the whole
    process (a CAS loop over the last value returned), so durations and
    deadlines never go backwards even if the system clock is stepped.
    Domain-safe.

    {!freeze} switches every reader of [now_ms] — cancellation deadlines,
    connection reapers, health probes — onto a virtual cell that only
    moves when {!advance} is called, so timeout logic can be unit-tested
    without sleeping. The monotone clamp is shared between the two
    sources: time never runs backwards across a freeze/thaw, though after
    {!thaw} the clock holds still until the wall catches up with wherever
    the virtual source was advanced to. *)

(** [now_ms ()] is milliseconds since the Unix epoch (or the frozen
    virtual time), non-decreasing. *)
val now_ms : unit -> float

(** [elapsed_ms since] is [now_ms () -. since] (never negative). *)
val elapsed_ms : float -> float

(** [freeze ()] switches [now_ms] to a virtual source, initialised to the
    current time. Idempotent. *)
val freeze : unit -> unit

(** [advance ms] moves the frozen clock forward by [ms] and returns the
    new [now_ms].
    @raise Invalid_argument when the clock is not frozen or [ms < 0]. *)
val advance : float -> float

(** [thaw ()] returns to the wall clock. *)
val thaw : unit -> unit

(** [frozen ()] is [true] between {!freeze} and {!thaw}. *)
val frozen : unit -> bool
