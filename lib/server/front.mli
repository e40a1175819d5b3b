(** The request loop of [spp serve] ({!Server}) and [spp proxy]
    ([Spp_cluster.Proxy]). {!serve} reads a line under the daemon's
    {!limits}, decodes it, counts its op, and dispatches [health] and
    [metrics] to the daemon's replies, [shutdown] to {!Listener.stop}
    and [solve] to the daemon's solve handler. It writes the reply under
    a [reply.write] span, finishes the request's trace, and records the
    request's size and time.

    {!create} registers, under the daemon's [prefix] ([spp_] or
    [spp_proxy_]), [connections_total], [bytes_read_total],
    [bytes_written_total], the [request_ms], [request_bytes] and
    [response_bytes] histograms, and the [connections_open] and
    [uptime_seconds] gauges; [connections_reaped_total] only when an
    idle or read deadline is set, since without one it cannot move.

    A finished trace is logged at [warn] as ["slow request"] when
    [slow_ms] is set and reached, else at [Debug] as ["request"], with
    [trace_id], [ms] and the span tree as a JSON object under
    ["trace"]. *)

type limits = {
  max_line_bytes : int;
      (** request-line cap: a longer line gets a [parse] error naming
          the cap, and the connection closes *)
  idle_timeout_ms : float option;
      (** close a connection that starts no new request for this long *)
  read_timeout_ms : float option;
      (** close a connection whose request line takes longer than this
          to complete from its first byte (the slow-loris guard) *)
  slow_ms : float option;  (** log traced requests at least this slow *)
}

type t

(** [create reg ~daemon ~prefix ~ops limits listener] registers the
    instruments above on [reg]. [daemon] names the process in the uptime
    gauge's help ([server], [proxy]); [ops] is the op counter's full
    name. *)
val create :
  Spp_obs.Metrics.t -> daemon:string -> prefix:string -> ops:string -> limits -> Listener.t -> t

(** Milliseconds since {!create}: the uptime both daemons report. *)
val uptime_ms : t -> float

(** [serve t ~health ~metrics ~solve fd] answers [fd]'s requests in
    order, until EOF, an I/O error, a failed write, an over-long line, a
    deadline, or a drain ({!Listener.stopping}: the reply in flight is
    still written). [solve] takes a [solve] request's fields and returns
    the reply with the request's trace, if it made one. Pass [serve],
    partially applied, to {!Listener.start}. *)
val serve :
  t ->
  health:(unit -> Protocol.response) ->
  metrics:(unit -> Protocol.response) ->
  solve:
    (instance:string ->
    budget_ms:float option ->
    deadline_ms:float option ->
    algos:string list option ->
    trace_id:string option ->
    Protocol.response * Spp_obs.Trace.t option) ->
  Unix.file_descr ->
  unit
