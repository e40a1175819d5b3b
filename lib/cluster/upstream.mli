(** One backend as seen from the proxy: a small pool of persistent
    {!Spp_server.Client} connections plus the call discipline over them.

    Connections are created lazily, parked when idle (up to [pool_size];
    extras close), and discarded on any transport error. A request that
    fails on a {e pooled} connection is retried once on a fresh one —
    a parked connection may have been closed by the backend (restart,
    idle reaping) without the proxy knowing, and that staleness should
    not surface as a backend failure. A failure on the fresh connection
    is real and propagates as {!Spp_server.Client.Error}.

    Fault point [proxy.upstream] (see {!Spp_util.Fault}) fires at the top
    of every {!call} as a transport error — the chaos hook for "the
    network to this backend broke". *)

type t

val default_pool_size : int

(** [create addr] — no connection is opened yet. [timeout_ms] bounds
    connects and per-request reply waits; [pool_size] (default
    {!default_pool_size}) bounds parked idle connections. *)
val create : ?pool_size:int -> ?timeout_ms:float -> Spp_server.Framing.address -> t

(** [name t] — the backend's stable identity: its address string. Used as
    the ring member name and the [backend] metric label. *)
val name : t -> string

val address : t -> Spp_server.Framing.address

(** [call t req] — send one request on a pooled (or fresh) connection and
    block for the reply. [timeout_ms] overrides the pool's reply timeout
    for this call — how a request's remaining deadline bounds its
    upstream wait.
    @raise Spp_server.Client.Error when the backend is unreachable or the
    connection (including the once-retried fresh one) fails. *)
val call :
  ?timeout_ms:float -> t -> Spp_server.Protocol.request -> Spp_server.Protocol.response

(** Connections parked idle right now — at most [pool_size]. *)
val idle : t -> int

(** Close every parked connection (in-flight calls are unaffected; their
    connections close on checkin). Idempotent. *)
val close : t -> unit
