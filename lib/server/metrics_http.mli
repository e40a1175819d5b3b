(** Minimal HTTP exposition endpoint for Prometheus scrapes.

    Serves [GET /metrics] with {!Spp_obs.Expo.render} of one registry
    over plain HTTP/1.1, one request per connection ([Connection: close]
    — exactly the shape Prometheus and [curl] speak). Anything else gets
    a 404/405. Not a general web server: the accept loop is a
    {!Listener}, so each scrape is answered on its own thread under a
    2-second budget — a peer that stalls mid-request holds only its own
    thread, never the next scrape. *)

type t

(** [start ~port registry] binds [host] (default loopback) and serves
    until {!stop}. [port] 0 picks a free port — read it back with
    {!port}. @raise Unix.Unix_error if the address cannot be bound. *)
val start : ?host:string -> port:int -> Spp_obs.Metrics.t -> t

val port : t -> int

(** [fetch ~host ~port ()] scrapes [GET /metrics] from a live endpoint
    (this module's server, or any Prometheus-style exporter) and returns
    the exposition text. Plain HTTP/1.1, [Connection: close]; parse the
    body with {!Spp_obs.Promtext}. Never raises — transport failures,
    timeouts (default budget 2 s) and non-200 statuses are [Error]. *)
val fetch :
  ?timeout_ms:float -> host:string -> port:int -> unit -> (string, string) result

(** [stop t] shuts the endpoint down and joins its threads. Idempotent. *)
val stop : t -> unit
