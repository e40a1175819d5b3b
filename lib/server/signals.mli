(** Signal plumbing for the daemon.

    OCaml signal handlers run between safe points, so a handler must do
    almost nothing: {!on_termination}'s callback should only flip an
    atomic flag (e.g. {!Server.stop}) — the {!Listener} polls the flag and
    performs the actual teardown on its own thread, which is what makes
    SIGTERM-under-load drain cleanly instead of deadlocking on a mutex the
    interrupted thread already holds. *)

(** [on_termination f] installs [f] as the handler for SIGINT and
    SIGTERM. [f] is called on every delivery and must be
    async-signal-light: set flags, nothing blocking. Platforms without a
    signal (or where the handler cannot be installed) are skipped
    silently. *)
val on_termination : (unit -> unit) -> unit

(** [ignore_sigpipe ()] — a peer closing its socket mid-write must surface
    as [EPIPE] on the write, not kill the process. Called by
    {!Listener.bind} and {!Client.connect}; idempotent. *)
val ignore_sigpipe : unit -> unit
