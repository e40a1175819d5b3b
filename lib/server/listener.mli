(** One listening socket, from bind to drain — the accept loop under
    {!Server}, [Spp_cluster.Proxy] and {!Metrics_http}.

    The accept thread polls the socket with a 50 ms [select], so {!stop}
    is one atomic store that the loop notices within a tick. Each
    accepted connection runs the owner's handler on its own thread and
    sits in an open-connection table until the handler returns or
    raises; the listener then closes the descriptor (handlers never
    close it). The table holds only open connections, so its size
    ({!connections}) tracks the peers connected now, not the number ever
    served.

    Drain runs on the accept thread once {!stop} is seen: the listening
    socket closes (new connects are refused) and a Unix socket path is
    unlinked; every open connection's receive side is shut down, so a
    handler waiting for its next request reads EOF while a reply still
    being written goes out intact; the connection threads are joined;
    last, the owner's [drained] step runs (for {!Server}, the queue close
    and worker-pool join). *)

type t

(** [bind addr] ignores SIGPIPE (a peer closing mid-write must surface as
    [EPIPE], not kill the process) and binds [addr] with
    {!Framing.listen}. Nothing is accepted until {!start}.
    @raise Unix.Unix_error if the address cannot be bound. *)
val bind : Framing.address -> t

(** [start ?drained t handle] spawns the accept thread, which runs
    [handle fd] on a fresh thread per connection. Exceptions from
    [handle] are swallowed; either way [fd] is closed and leaves the
    table. [drained] runs once, at the end of the drain. *)
val start : ?drained:(unit -> unit) -> t -> (Unix.file_descr -> unit) -> unit

(** [stop t] begins the drain: an atomic store, idempotent, safe from a
    signal handler. Pair with {!wait}. *)
val stop : t -> unit

(** [stopping t] is true once {!stop} has been called; handlers check it
    to take no further requests after the one in flight. *)
val stopping : t -> bool

(** [wait t] blocks until the drain, [drained] included, has finished. *)
val wait : t -> unit

(** Connections accepted whose handler has not yet returned. *)
val connections : t -> int

(** The bound TCP port (useful after binding port 0); 0 for a Unix
    socket. *)
val port : t -> int
