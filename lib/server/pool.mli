(** Worker pool: OCaml 5 domains draining a {!Bqueue}, one per slot.

    Each worker loops [Bqueue.pop]: [Some job] is handed to the job
    function, [None] (queue closed and drained) makes the worker exit.
    All workers share whatever state the job function closes over — for
    the server that is one {!Spp_engine.Engine.t}, which is the whole
    point: its LRU, disk store and telemetry are mutex-protected and
    shared across every request.

    Crashes: a job function that raises (or a [pool.job] fault from
    {!Spp_util.Fault}) crashes its job, not its domain. The slot calls
    [on_crash] with the job (so the server can fail that job's reply
    mailbox instead of leaving its client hanging) and goes on popping
    in place — a raise leaves nothing in the domain that needs a fresh
    one — up to [max_restarts] times per slot; the next crash retires
    the slot. Crashes and restarts are counted for the
    [spp_worker_deaths_total] / [spp_worker_restarts_total] metrics.

    If {e every} slot exhausts its budget the pool declares itself dead:
    it closes the queue (so new work is shed at admission) and fails each
    queued job via [on_crash] with {!Pool_dead} — degraded, but never a
    hang. *)

type t

(** Passed to [on_crash] for jobs the pool can no longer run because all
    worker slots exhausted their restart budgets. *)
exception Pool_dead

(** Default per-slot restart budget (16). *)
val default_max_restarts : int

(** [start ~on_crash ~workers f q] spawns [max 1 workers] domains
    popping from [q]. Returns immediately.

    [on_crash job exn] runs on the worker's domain for every job whose
    run raised (and for queued jobs of a dead pool, with {!Pool_dead});
    exceptions it raises are swallowed. [max_restarts] bounds restarts
    per slot (default {!default_max_restarts}). *)
val start :
  ?max_restarts:int ->
  on_crash:('a -> exn -> unit) ->
  workers:int -> ('a -> unit) -> 'a Bqueue.t -> t

(** Crashes seen so far: jobs whose run raised. *)
val deaths : t -> int

(** Restarts so far: crashes after which the slot went on (crashes
    minus retired slots and crashes during the final drain). *)
val restarts : t -> int

(** [join t] blocks until every worker domain has exited — i.e. until
    the queue has been {!Bqueue.close}d and fully drained, or the pool
    died. *)
val join : t -> unit
