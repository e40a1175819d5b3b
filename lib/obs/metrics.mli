(** Domain-safe metrics registry: named counters, gauges, and
    log-bucketed histograms, with optional Prometheus-style labels.

    Hot-path cost is one atomic increment: registration (under the
    registry mutex) hands back a handle whose cells are sharded across a
    small power-of-two pool indexed by the calling domain's id, so racing
    domains rarely contend on a cache line; shards are merged at
    {!snapshot} time. Gauges are a single atomic cell (set semantics do
    not shard); callback metrics ({!counter_fn}, {!gauge_fn}) are sampled
    lazily at snapshot time and suit values another subsystem already
    maintains (queue depth, LRU occupancy, uptime).

    A registry created with [~enabled:false] hands out no-op handles and
    records nothing — snapshots and scrapes are empty. *)

type t

(** [create ()] builds a registry. [shards] (default 16) is rounded up to
    a power of two. [~enabled:false] makes every handle a no-op. *)
val create : ?enabled:bool -> ?shards:int -> unit -> t

val enabled : t -> bool

(** {1 Counters} *)

type counter

(** [counter t name] registers (or finds) a monotone counter. Same
    [name]+[labels] always returns a handle to the same cells.
    @raise Invalid_argument if [name]+[labels] is registered as a
    different metric kind. *)
val counter : t -> ?help:string -> ?labels:(string * string) list -> string -> counter

val incr : ?by:int -> counter -> unit
val counter_value : counter -> int

(** [counter_fn t name f] registers a counter whose value is [f ()] at
    snapshot time. Re-registration replaces the closure. *)
val counter_fn : t -> ?help:string -> ?labels:(string * string) list -> string -> (unit -> int) -> unit

(** {1 Gauges} *)

type gauge

val gauge : t -> ?help:string -> ?labels:(string * string) list -> string -> gauge
val gauge_set : gauge -> float -> unit
val gauge_add : gauge -> float -> unit
val gauge_value : gauge -> float

val gauge_fn : t -> ?help:string -> ?labels:(string * string) list -> string -> (unit -> float) -> unit

(** {1 Histograms} *)

type histogram

(** Upper bucket bounds for latencies in milliseconds: 50 µs to 10 s in
    a 1 / 2.5 / 5 logarithmic ladder. *)
val default_latency_buckets : float array

(** Byte-size bounds: 64 B to 4 MiB, powers of four. *)
val default_size_buckets : float array

(** [histogram t name] registers a histogram with the given upper bucket
    bounds (default {!default_latency_buckets}; must be strictly
    increasing and finite — an implicit [+Inf] overflow bucket is always
    appended). Observations use Prometheus [le] semantics: a value lands
    in the first bucket whose bound is [>=] it.
    @raise Invalid_argument on bad bounds, a kind clash, or
    re-registration with different explicit bounds. *)
val histogram :
  t -> ?help:string -> ?labels:(string * string) list -> ?buckets:float array -> string ->
  histogram

val observe : histogram -> float -> unit

(** {1 Snapshots} *)

type hist_snapshot = {
  buckets : (float * int) list;  (** (finite upper bound, cumulative count) *)
  total : int;  (** all observations, including the overflow bucket *)
  sum : float;
}

(** [hist_quantile s q] estimates the [q]-quantile ([0..1]) by linear
    interpolation inside the bucket holding that rank; ranks falling in
    the overflow bucket report the largest finite bound; [0.] on an empty
    histogram. *)
val hist_quantile : hist_snapshot -> float -> float

type value =
  | Counter of int
  | Gauge of float
  | Histogram of hist_snapshot

type sample = {
  name : string;
  labels : (string * string) list;  (** sorted by label name *)
  help : string;
  value : value;
}

(** All registered metrics, shards merged, sorted by name then labels.
    Takes the registry mutex only to list entries — cell reads are
    lock-free, so scraping never stalls the hot path. *)
val snapshot : t -> sample list

(** Counter samples as [("name{k=\"v\"}", value)] pairs, sorted — the
    shape the wire protocol's [metrics] reply carries. *)
val counters : t -> (string * int) list

val find_counter : t -> ?labels:(string * string) list -> string -> int option
val find_histogram : t -> ?labels:(string * string) list -> string -> hist_snapshot option

(** Every labelling of counter [name]: [(labels, value)] list. *)
val labeled_counters : t -> string -> ((string * string) list * int) list
