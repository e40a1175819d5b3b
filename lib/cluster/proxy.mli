(** The `spp proxy` front tier: one NDJSON endpoint over a ring of
    `spp serve` backends.

    {v
    clients --ndjson--> proxy ---+--> backend A (spp serve)
                        | ring   +--> backend B
                        | cache  +--> backend C
                        +-- health prober (health op, jittered)
    v}

    - {b Routing}: each [solve] request's instance is fingerprinted
      ({!Spp_engine.Fingerprint}; known text through the text index
      below, unknown text parsed first), and the fingerprint is
      consistent-hashed ({!Ring}) over the {e live} backends — the same
      instance always lands on the same backend, so backend-local caches
      concentrate instead of diluting across the fleet.
    - {b Coalescing}: concurrent requests for the same fingerprint share
      one upstream solve ({!Coalesce}); budgets and algorithm lists are
      {e not} part of the key (the engine's own cache is keyed by
      fingerprint alone, so coalesced sharers get exactly what a cache
      hit would have given them).
    - {b Warm cache}: successful replies are snooped into a bounded
      fingerprint-keyed LRU; a repeat answers at the proxy with
      [source = "cache.proxy"] without touching a backend — and keeps
      answering even when every backend is dead. Its size is the
      [spp_proxy_cache_entries] gauge.
    - {b Text index}: in front of the warm cache, a bounded LRU maps
      [Digest.string] (MD5) of a request's raw instance text to its
      fingerprint, so only text the proxy has not seen byte for byte is
      parsed and fingerprinted. Routing, coalescing and the warm cache
      still key on the fingerprint: a re-spelled instance (other comments
      or spacing) is parsed once and then hits by fingerprint. The index
      holds as many entries as the warm cache, is exported as
      [spp_proxy_text_entries], and is off with it ([cache_capacity = 0]
      parses every request).
    - {b Health}: a prober thread issues [health] ops on
      decorrelated-jitter intervals; [fail_after] consecutive failures
      evict a backend from the ring (its keys move to their ring
      successors), [revive_after] consecutive successes readmit it.
      Transport failures observed by live traffic count against a backend
      too, so eviction does not wait for the prober.
    - {b Failover}: a [solve] whose routed backend fails (transport error,
      or an [overloaded] / [shutting_down] / [internal] reply) walks the
      ring successor list, up to [failover] further backends. Instance-
      specific rejections ([bad_instance], [bad_request]) are returned
      as-is — the next backend would say the same. With no backend left
      the client gets [overloaded] with a [retry_after_ms] hint, which
      retrying clients (and {!Spp_server.Client.call}) treat as a floor.
    - {b Hedging}: with [hedge] enabled, a routed backend that is merely
      {e slow} also triggers failover — after the hedge delay with no
      verdict, the same solve is re-issued to the next ring successor in
      parallel and the first reply wins ([spp_hedges_total],
      [spp_hedge_wins_total]). The loser is abandoned; the propagated
      deadline it carried bounds what it can still cost its backend.
      [Hedge_auto] derives the delay from the observed upstream p99
      (once 32 samples exist, floored at 25 ms); [Hedge_fixed] pins it.
    - {b Circuit breakers}: each backend carries a {!Breaker} — a rolling
      window that opens on clustered transport failures faster than the
      consecutive-streak health counters can, then re-admits via a
      single half-open probe request. An open breaker skips the backend
      on the request path ([breaker_open] outcome) without waiting for
      ring eviction; state is exported as [spp_breaker_state]{[backend]}.
    - {b Deadlines}: a [solve] carrying [deadline_ms] is pinned to the
      proxy's clock at receipt; each upstream launch forwards only the
      budget remaining at that moment and bounds its reply wait by it. A
      request whose deadline is exhausted before any upstream call is
      fast-failed with [wont_make_it] ([spp_deadline_rejects_total]) —
      though a warm-cache hit is always served. Degraded replies pass
      through to the caller but are never snooped into the warm cache.

    Each connection runs {!Spp_server.Front}'s request loop, with the
    framing layer's 8 MiB line cap, no idle or read deadline, the
    [spp_proxy_] metric prefix and [spp_proxy_ops_total]{[op]}.
    [metrics] and [health] ops are answered locally from the proxy's own
    registry; [shutdown] drains the proxy and never propagates
    upstream.

    Fault points: [proxy.upstream] (in {!Upstream.call}), [proxy.health]
    (fails individual probes) and [proxy.hedge] (suppresses a hedged
    re-issue the moment its timer fires). *)

(** When to re-issue a slow pending solve to the next backend:
    never; after the observed upstream p99 (needs history, see above);
    or after a fixed delay in milliseconds. *)
type hedge_policy = Hedge_off | Hedge_auto | Hedge_fixed of float

type config = {
  address : Spp_server.Framing.address;  (** front listen address *)
  backends : Spp_server.Framing.address list;  (** at least one *)
  replicas : int;  (** ring vnodes per backend, see {!Ring} *)
  cache_capacity : int;
      (** snoop-LRU entries, and text-index entries in front of it; [0]
          disables both *)
  pool_size : int;
      (** idle upstream connections kept per backend
          ([spp_proxy_upstream_idle]{[backend]}) *)
  upstream_timeout_ms : float option;
      (** bounds upstream connects and reply waits ([None] = no deadline) *)
  failover : int;
      (** extra ring successors tried after the routed backend fails *)
  probe_interval_ms : float;
      (** base health-probe interval; actual intervals are decorrelated-
          jittered up from this, and fall back to it while any backend is
          down (so readmission is prompt); also the [retry_after_ms] hint
          on no-backend [overloaded] replies *)
  fail_after : int;  (** consecutive failures before ring eviction *)
  revive_after : int;  (** consecutive probe successes before readmission *)
  registry : Spp_obs.Metrics.t;  (** proxy metrics land here *)
  seed : int;  (** prober-jitter PRNG seed *)
  hedge : hedge_policy;
  breaker_window : int;  (** rolling outcomes per backend, see {!Breaker} *)
  breaker_threshold : int;  (** failures within the window that trip it *)
  breaker_cooldown_ms : float;  (** open time before the half-open probe *)
  idle_timeout_ms : float option;
      (** close a client connection that starts no new request for this
          long ([None] = never); counted in
          [spp_proxy_connections_reaped_total] *)
  read_timeout_ms : float option;
      (** close a client connection whose request line takes longer than
          this to complete from its first byte ([None] = never) *)
}

(** Defaults: 64 replicas, 512 cache entries, pool of 2, 5 s upstream
    timeout, failover 2, 1 s probes, fail after 3, revive after 2,
    seed 0, hedging off, breaker 5-of-8 with a 5 s cooldown, and
    [spp serve]'s client deadlines: 30 s idle, 10 s per request line.
    [registry] is fresh and enabled. *)
val default_config :
  address:Spp_server.Framing.address ->
  backends:Spp_server.Framing.address list -> unit -> config

type t

(** [start cfg] binds the front address, spawns the prober and the
    {!Spp_server.Listener}'s accept thread, and returns immediately. All
    backends start presumed live; the first probe cycle corrects that
    within roughly [probe_interval_ms].
    @raise Invalid_argument on an empty backend list or nonsensical
    numeric fields.
    @raise Unix.Unix_error if the front address cannot be bound. *)
val start : config -> t

(** Live backend names ({!Upstream.name} strings), sorted — the current
    ring membership. *)
val live_backends : t -> string list

(** [stop t] initiates graceful drain (idempotent, returns immediately);
    pair with {!wait}. *)
val stop : t -> unit

(** Block until drained: listener closed, connection threads joined,
    prober joined, upstream pools closed. *)
val wait : t -> unit
