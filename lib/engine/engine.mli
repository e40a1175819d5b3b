(** The portfolio solver engine: one managed entry point over every
    algorithm in the repository.

    [solve] fingerprints the instance, serves repeats from an in-memory
    LRU (and optionally a disk {!Store}), and otherwise races the
    applicable {!Portfolio} members across OCaml domains under a shared
    wall-clock budget. Every raced result is checked with
    {!Spp_core.Validate} before it may win; the lowest valid packing is
    returned together with per-solver outcomes.

    The engine is an {e anytime} solver: before the race starts it seeds
    a shared incumbent with the guaranteed-fast greedy list schedule, and
    racers publish their validated packings to it as they finish. When
    the budget expires before any racer completes, [solve] answers with
    the incumbent instead of nothing; such a cut-short solve is marked
    [degraded] and is kept out of both caches (a repeat with a roomier
    budget should recompute). A race in which {e some} members timed out
    but one solved is a normal full-quality answer, not a degraded one.
    Every result also carries the
    paper's exact-rational [lower_bound] for the instance and the [gap]
    to it, so a caller can judge how far a degraded answer might be from
    optimal. If the incumbent seed itself is suppressed (the
    [engine.incumbent] fault point), the greedy scheduler still runs as
    an uncancellable fallback — [solve] always returns a valid packing.

    All activity is recorded in a {!Telemetry} value: per-solver timing
    events (name ["solver"]), per-solve summaries (name ["solve"]; none
    for a {!find_text} hit), and
    counters ([solve.runs], [cache.hit], [cache.hit.memory],
    [cache.hit.disk], [cache.miss], [solver.solved], [solver.timeout],
    [solver.invalid], [solver.failed], [solver.incumbent],
    [solve.degraded], [incumbent.skipped]).

    The telemetry's backing {!Spp_obs.Metrics} registry additionally
    carries richer instruments the scrape endpoint exposes: the
    [spp_solve_ms] latency histogram, [spp_algo_outcomes_total]{[algo],
    [outcome]} and [spp_algo_wins_total]{[algo]} labelled counters,
    [spp_cancel_polls_total], LRU occupancy/eviction metrics
    ([spp_cache_entries], [spp_cache_evictions_total]) and — when a disk
    store is attached — [spp_store_entries] and [spp_store_prunes_total].
    Passing [?trace] to {!solve} records a span tree of the request
    (cache probe, the race with one span per algorithm and its
    validation, the fallback) under the trace's root.

    {b The byte path.} A bounded text index sits in front of the LRU. It
    maps [Digest.string] (MD5, as {!Fingerprint}) of a request's raw
    instance text to the instance's fingerprint, holds as many entries as
    the LRU ([cache_capacity]) and is exported as the
    [spp_cache_text_entries] gauge. {!solve} fills it whenever the caller
    passes [~text], on every path — computed, memory hit, disk hit and
    degraded alike — because text to fingerprint depends on the bytes
    alone and never goes stale. Whether an answer exists stays the LRU's
    decision: each entry keeps the placement, its exact [lower_bound] and
    the placement already encoded by {!Spp_core.Io.placement_to_string},
    so {!find_text} answers a byte-identical repeat without parsing,
    fingerprinting, computing the bound or encoding. Texts that differ
    only in comments or spacing are different keys; the first of each
    takes the parse path and hits the LRU by fingerprint. *)

type status =
  | Solved  (** finished in budget and validated *)
  | Timed_out  (** hit the cancellation deadline *)
  | Invalid  (** finished but failed validation — reported, never returned *)
  | Failed of string  (** raised; the exception text *)
  | Skipped of string  (** not run; the reason (e.g. inapplicable) *)

type outcome = {
  solver : string;
  status : status;
  height : Spp_num.Rat.t option;  (** for [Solved] only *)
  time_ms : float;
}

type source = Computed | Memory_cache | Disk_cache

(** The wire name of a source: ["computed"], ["cache.memory"] or
    ["cache.disk"]. *)
val source_to_string : source -> string

type result = {
  placement : Spp_geom.Placement.t;
  height : Spp_num.Rat.t;
  winner : string;  (** portfolio member that produced [placement] *)
  source : source;
  outcomes : outcome list;  (** per-member; empty on a cache hit *)
  time_ms : float;  (** wall clock for this [solve] call *)
  degraded : bool;
      (** the budget cut at least one racer short, so [placement] is the
          best answer known at expiry (possibly the anytime incumbent)
          rather than the full portfolio's. Never cached. *)
  lower_bound : Spp_num.Rat.t;
      (** the paper's instance lower bound — [max(AREA, F)] for
          precedence, [max(AREA, max (r+h))] for release instances *)
  gap : Spp_num.Rat.t;  (** [height - lower_bound]; always [>= 0] *)
}

type t

(** [create ()] builds an engine. [cache_capacity] bounds the in-memory
    LRU (default 128 instances). [store_dir] adds a disk cache shared
    across processes, bounded to [store_max_entries] files (default
    {!Store.default_max_entries}). [telemetry] shares an external log
    (default: a fresh one, retrievable via {!telemetry}). *)
val create :
  ?cache_capacity:int -> ?store_dir:string -> ?store_max_entries:int ->
  ?telemetry:Telemetry.t -> unit -> t

val telemetry : t -> Telemetry.t

(** Hit/miss/eviction counters and current size of the in-memory LRU —
    what the [spp serve] metrics endpoint reports. *)
val cache_stats : t -> Lru.stats

val cache_capacity : t -> int

(** The disk cache directory, if the engine was created with one. *)
val store_dir : t -> string option

(** [solve t parsed] races the portfolio (or the cache) as described
    above. [budget_ms]: wall-clock budget shared by all racers (default:
    unlimited). [algos]: explicit member list instead of
    {!Portfolio.defaults} — inapplicable ones are reported as [Skipped].
    [workers]: domains racing at once (default
    {!Spp_util.Parallel.available_workers}). [trace]: record this solve
    as spans under the trace's root. [text]: the raw text [parsed] came
    from; remembered in the text index so {!find_text} can answer its
    repeats.
    @raise Invalid_argument on an unknown name in [algos]. *)
val solve :
  ?budget_ms:float -> ?algos:string list -> ?workers:int ->
  ?trace:Spp_obs.Trace.t -> ?text:string ->
  t -> Spp_core.Io.parsed -> result

(** [find_text t text] answers from memory when [text] — the raw
    instance text a request carried — was seen by a {!solve} [~text]
    whose fingerprint still has an LRU entry. It returns the
    [Memory_cache] result together with its placement encoded as
    {!Spp_core.Io.placement_to_string} would; [None] means "parse and
    {!solve}", never "no such instance".

    A hit counts exactly what a memory hit of {!solve} counts: one LRU
    hit, [solve.runs], [cache.hit], [cache.hit.memory] and one
    [spp_solve_ms] sample. A miss counts nothing — also when the index
    knows the text but its LRU entry was evicted or never made (degraded
    answers are not cached) — so the {!solve} that follows counts the
    request's single LRU miss. The [engine.solve] fault point fires once,
    on a hit only, for the same reason. Unlike {!solve}, a hit records no
    {!Telemetry} event: the event log is never trimmed, and the byte path
    answers several times as many requests per second as the parse path.
    [trace] opens a [cache.probe] span (field [key = "text"]) under the
    trace's root.
    @raise Spp_util.Fault.Injected when the fault point fires. *)
val find_text :
  ?trace:Spp_obs.Trace.t -> t -> string -> (result * string) option

val pp_status : Format.formatter -> status -> unit
