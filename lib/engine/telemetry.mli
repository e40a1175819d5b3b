(** Structured run telemetry: counters, wall-clock timers, and a
    chronological event log exportable as JSON lines.

    One value is shared by an engine and all its racing domains
    (mutex-protected). Timestamps come from the monotonic
    {!Spp_util.Clock}, measured in milliseconds since {!create}.

    Counters live in a {!Spp_obs.Metrics} registry rather than a private
    table, so engine telemetry, server metrics, and the Prometheus scrape
    endpoint are views of one system: [incr t "cache.hit"] and a handle
    obtained directly from {!metrics} bump the same cells, and
    {!counters} reports every counter the registry holds. The event log
    stays local to this value.

    The event log is never trimmed: it grows by one entry per
    {!record}. A value that nothing will export should be created with
    [~events:false]. [spp solve], [spp batch] and [spp serve] keep events
    only under [--stats-json], the one reader of the log, so a daemon
    without it holds no per-solve state. *)

type field = Spp_obs.Field.t =
  | String of string
  | Int of int
  | Float of float
  | Bool of bool
  | Json of Spp_util.Json.t

type event = {
  name : string;
  at_ms : float;  (** milliseconds since {!create} *)
  fields : (string * field) list;
}

type t

(** [create ()] starts a log backed by a fresh registry, which
    [spp serve] then shares: the server registers its own instruments on
    {!metrics}, so solver counters and request series land on one scrape
    endpoint. With [~events:false] (default [true]) {!record} and
    {!time} keep nothing, so {!events} stays empty and {!to_json_lines}
    prints only the counters; counters count as before. *)
val create : ?events:bool -> unit -> t

(** The backing registry — register richer instruments (histograms,
    gauges) next to the counters. *)
val metrics : t -> Spp_obs.Metrics.t

(** [record t ~name fields] appends an event stamped now, unless the log
    was created with [~events:false]. *)
val record : t -> name:string -> (string * field) list -> unit

(** [incr ?by t counter] bumps a named counter ([by] defaults to 1). *)
val incr : ?by:int -> t -> string -> unit

val counter : t -> string -> int

(** All counters in the backing registry, sorted by name (labelled
    counters render as [name{k="v"}]). *)
val counters : t -> (string * int) list

(** Events in chronological order. *)
val events : t -> event list

(** [time t ~name ~fields f] runs [f], then records an event carrying
    [fields], a ["ms"] duration field, and an ["outcome"] field — ["ok"],
    or ["raised"] when [f] escapes with an exception (re-raised). *)
val time : t -> name:string -> fields:(string * field) list -> (unit -> 'a) -> 'a

(** One JSON object per line: every event as
    [{"event":name,"t_ms":...,<fields>}] in order, then every counter as
    [{"counter":name,"value":n}]. Strings are JSON-escaped. *)
val to_json_lines : t -> string
