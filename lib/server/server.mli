(** The `spp serve` daemon: a long-running network front end over one
    shared {!Spp_engine.Engine.t}.

    Concurrency shape:

    {v
    listener thread --accept--> connection threads (one per open client)
                                   | decode line, admission-check,
                                   | Engine.find_text --hit--> reply
                                   | miss: parse, try_push job ----+
                                   | block on reply mailbox        |
                                   v                               v
                             bounded Bqueue  <--pop--  worker pool (domains)
                                                         Engine.solve ~text
    v}

    - A {!Listener} gives each accepted connection its own lightweight
      thread, which runs {!Front}'s request loop — the one [spp proxy]
      runs too — over its client's requests strictly in order (the
      protocol is synchronous per connection). The server supplies only
      its [health] and [metrics] replies and its solve admission. The
      listener tracks open connections only — a thread leaves its table
      when the client goes — so no structure grows with the number of
      connections served; the table's size is the
      [spp_connections_open] gauge.
    - A [solve] whose instance text is byte-identical to one the engine
      has answered and still holds in its LRU is answered on the
      connection thread by {!Spp_engine.Engine.find_text}: no parse, no
      queue, no worker handoff — so a memory hit never waits behind cold
      solves and is served even when the queue is full. The draining and
      deadline-floor checks still come first.
    - Every other [solve] is parsed and admitted to a bounded queue; when
      it is full the client gets an immediate [overloaded] error instead
      of unbounded latency (load shedding).
    - Worker domains share one engine, so the in-memory LRU, the disk
      store and the telemetry counters accumulate across all clients —
      repeats are served from cache at memory speed.
    - Per-request deadlines ([budget_ms], or the server default) become
      {!Spp_util.Cancel} tokens inside the engine, so exact solvers are
      cancelled cooperatively and every request still returns a valid
      packing via the engine's fallback.
    - Propagated deadlines ([deadline_ms] on the wire) are pinned to the
      server's clock at receipt ({!Spp_util.Deadline}); a request whose
      remainder is already below [deadline_floor_ms] is fast-failed at
      admission with [wont_make_it] (plus a [retry_after_ms] hint), and
      one that ages out while queued is turned away at dispatch instead
      of burning a worker — both counted in
      [spp_deadline_rejects_total]{[stage]}. Otherwise the engine budget
      is capped by the remaining deadline, so a budget-expired solve
      comes back as the engine's anytime incumbent with [degraded: true]
      (counted in [spp_degraded_replies_total]) rather than late.
    - {!stop} (from a signal handler, a [shutdown] request, or a test)
      only flips the listener's flag; its accept thread notices within
      ~50 ms and drains: the listening socket closes (new connections
      refused), idle connections are woken and closed, in-flight requests
      complete and their replies are written, then the queue closes and
      the workers exit.
    - Robustness: a job that raises on its worker (see {!Pool}) still
      receives a structured [internal] reply, and the worker's domain
      goes on in place within [max_worker_restarts]; crashes and
      restarts surface as [spp_worker_deaths_total] /
      [spp_worker_restarts_total]. Connections that idle past
      [idle_timeout_ms] or trickle a request past [read_timeout_ms] are
      reaped ([spp_connections_reaped_total]); [overloaded] replies carry
      a [retry_after_ms] hint.

    Observability: the server registers its instruments on the engine
    telemetry's {!Spp_obs.Metrics} registry — [spp_requests_total]{[op]},
    [spp_requests_shed_total], [spp_connections_total], open-connection,
    queue-depth and in-flight gauges, bytes in/out, and [spp_request_ms] /
    [spp_queue_wait_ms] / request-and-response size histograms — so one
    registry feeds the [metrics] op and the scrape endpoint
    ({!Metrics_http}). Only requests that reach the queue count in
    [spp_queue_wait_ms] and [spp_inflight_requests]; memory hits answered
    on the connection thread do not. A solve request is traced
    ({!Spp_obs.Trace}) when the client supplies a [trace_id], when
    [slow_ms] is set, or when the log level is [Debug]; its span tree
    covers the byte-path [cache.probe], then (on a miss) queue wait, the
    engine's cache probe and race, and the reply write. Requests slower than
    [slow_ms] are logged at [warn] (and, at [Debug], every traced request)
    with the span tree attached as a JSON object. *)

type config = {
  address : Framing.address;
  workers : int;  (** worker domains sharing the engine *)
  queue_depth : int;  (** admission queue bound (load shedding above it) *)
  engine : Spp_engine.Engine.t;
  default_budget_ms : float option;
      (** applied to [solve] requests that carry no budget *)
  solve_workers : int option;
      (** domains racing portfolio members inside one solve (default:
          engine default; keep [workers * solve_workers] near the core
          count) *)
  max_request_bytes : int;  (** request-line size cap, see {!Framing} *)
  slow_ms : float option;
      (** log requests slower than this at [warn] with their span tree;
          also forces every solve request to be traced *)
  idle_timeout_ms : float option;
      (** reap a connection that starts no new request for this long
          ([None] = never); counted in [spp_connections_reaped_total] *)
  read_timeout_ms : float option;
      (** reap a connection whose request line takes longer than this to
          complete from its first byte — the slow-loris guard ([None] =
          never) *)
  retry_after_ms : int;
      (** backoff hint attached to [overloaded] replies (see
          {!Protocol.response}) *)
  max_worker_restarts : int option;
      (** per-slot budget of crashes a worker goes on after ([None] =
          {!Pool.default_max_restarts}) *)
  deadline_floor_ms : float;
      (** fast-fail [solve] requests whose propagated [deadline_ms]
          remainder is below this with [wont_make_it] — checked at
          admission and again at dispatch after the queue wait *)
}

val default_max_request_bytes : int

(** Default [retry_after_ms] (100). *)
val default_retry_after_ms : int

(** Default [deadline_floor_ms] (5). *)
val default_deadline_floor_ms : float

type t

(** [start cfg] binds the address, spawns the worker pool and the
    listener's accept thread, and returns immediately.
    @raise Unix.Unix_error if the address cannot be bound. *)
val start : config -> t

(** [stop t] initiates graceful shutdown. Async-signal-light (an atomic
    store), idempotent, returns immediately — pair with {!wait}. *)
val stop : t -> unit

(** [wait t] blocks until shutdown has fully drained: all connection
    threads joined, queue closed, worker domains exited, listener closed
    (and a Unix socket path unlinked). *)
val wait : t -> unit
