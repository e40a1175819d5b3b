(** The event-driven online simulator: a virtual clock, a release-time
    instance replayed as an arrival stream, an {!Online} packer making
    irrevocable commits against {!Strip_state}, and optional
    {!Repack}-on-threshold between events.

    Everything is a pure function of the instance and the options —
    there is no wall-clock anywhere in the loop — so a run is
    bit-reproducible: same instance, same options, same {!report}.

    The report carries the full segment log, so soundness is checked
    {e post hoc} by {!check} (an independent validator, sharing no code
    with the packer) and, for move-free runs, cross-checked against the
    offline oracle via {!to_placement} +
    {!Spp_core.Validate.check_release}.

    {2 Ticks, the guard, and the fallback}

    {!run} counts time in integer ticks of [1/s], where [s] is the lcm
    of the instance's height and release denominators
    ({!Spp_num.Scale}). Occupancy, retirement and the next finish live in
    the tick {!Strip_state}, the pending tasks in an {!Online.queue}, and
    the fragmentation integral is one integer sum [A_f] per free-column
    count [f] (exactly the sum of [A_f / (f·s)]). The segment log, the
    totals and [frag_mean] become rationals once, at the end. Each field
    of the report equals {!Reference.run}'s, the rational loop this
    module started as: each segment in order, each repack event,
    [frag_peak] and the exact [frag_mean].

    The input decides which loop runs; there is no flag. With [H] the
    horizon (max release + sum of heights) in ticks and the threshold
    [a/b] in lowest terms, the ticks run when every width is in (0, 1],
    every height positive and every release non-negative, [s] and each
    width's denominator fit a native int, and [H·max(n, k)], [k·k],
    [|a|·k], [b·k] and each width's numerator times [k] are at most
    2{^60}. Every event tick is at most [H] (the strip is never idle
    while a task waits), so then every tick, every wait and their sum,
    each [A_f], every cross-product of the threshold test and the peak,
    and each width in columns fit a native int. Any other input runs
    {!Reference.run}. {!on_kernel} tells which. *)

type repack_event = {
  at : Spp_num.Rat.t;
  frag_before : Spp_num.Rat.t;
  frag_after : Spp_num.Rat.t;
  moved : int;  (** residents relocated *)
  cells : int;  (** column cells migrated *)
}

type report = {
  k : int;
  tasks : int;
  widened : int;  (** arrivals widened to a column boundary *)
  makespan : Spp_num.Rat.t;
  total_wait : Spp_num.Rat.t;  (** sum over tasks of (start - release) *)
  max_pending : int;  (** peak length of the pending queue *)
  placements : int;
  repacks : repack_event list;  (** chronological *)
  moves : int;
  cells_migrated : int;
  migration_cost : Spp_num.Rat.t;  (** cells_migrated * cost per cell *)
  frag_peak : Spp_num.Rat.t;  (** max fragmentation sampled at any event *)
  frag_mean : Spp_num.Rat.t;  (** time-weighted mean over [0, makespan] *)
  segments : Strip_state.segment list;
}

(** [run ~packer inst] replays [inst]'s tasks in release order through
    the online [packer].

    [repack_threshold]: when set, after each event at which fragmentation
    is positive and [>=] the threshold, the cheapest available
    {!Repack.best} plan is applied (fragmentation drops to zero by
    construction). [migration_cost] (default 1) prices each migrated
    cell. [exact_repack_max] bounds the exact repack search (default 7
    residents).

    [registry] receives [spp_sim_*] counters/gauges. *)
val run :
  ?registry:Spp_obs.Metrics.t ->
  ?repack_threshold:Spp_num.Rat.t ->
  ?migration_cost:Spp_num.Rat.t ->
  ?exact_repack_max:int ->
  packer:Online.t ->
  Spp_core.Instance.Release.t ->
  report

(** [on_kernel ?repack_threshold inst] is [true] when {!run} runs on
    ticks for [inst] and this threshold, [false] when it runs
    {!Reference.run}. *)
val on_kernel : ?repack_threshold:Spp_num.Rat.t -> Spp_core.Instance.Release.t -> bool

type violation =
  | Overlap of int * int  (** two tasks share an instant and a column *)
  | Early_start of int  (** ran before its release time *)
  | Out_of_strip of int  (** columns outside [0, k) *)
  | Too_narrow of int  (** fewer columns than the task's width needs *)
  | Chain_gap of int  (** segment chain broken, or total time <> height *)
  | Missing of int  (** never ran *)
  | Unknown_task of int  (** the log has segments of a task the instance lacks *)

val pp_violation : Format.formatter -> violation -> unit

(** [check inst report] independently validates the segment log against
    the instance: no two tasks overlap in time x columns, every task runs
    gaplessly for exactly its height starting at or after its release on
    enough in-strip columns, and the log names no other task. Empty
    result = sound run.

    The per-task violations come first, task by task in instance order;
    then one [Unknown_task id] per id the instance does not have, in
    order of its first segment in the log; then one [Overlap (a, b)]
    ([a < b]) per colliding task pair, in the order of the first
    colliding segment pair in log order. A task's chain is its segments
    by start, equal starts in reverse log order; its first segment sets
    the columns it is checked against. Colliding segments are found by
    one sweep over time ({!Spp_geom.Sweep.pairs}): a sound log costs
    O(s log s + s·k) for [s] segments on [k] columns.

    It runs on ticks of [1/s], [s] the lcm of the denominators of the
    instance's heights and releases and of the log's endpoints, its own
    scale, whatever grid {!run} used: each task's segments gathered by a
    counting sort over instance positions, every time comparison on
    ints, and [Too_narrow] as [cols < ⌈a·k/b⌉] for the width [a/b]
    (exactly [cols/k < a/b]). The guard: [s] fits a native int, every
    height, release and endpoint is at most 2{^60} ticks, and every
    width [a/b] is in (0, 1] with [a·k] at most 2{^60}. Past it the same checks run on rationals, with the
    same result; {!check_on_ticks} tells which. *)
val check : Spp_core.Instance.Release.t -> report -> violation list

(** [check_on_ticks inst report] is [true] when {!check} runs on ticks
    for this pair, [false] when it runs on rationals. *)
val check_on_ticks : Spp_core.Instance.Release.t -> report -> bool

(** The oracles. Only the tests, [lib/check] and the benchmark harness
    call them; {!run} falls back to [Reference.run] off the tick grid. *)
module Reference : sig
  (** The rational loop over {!Strip_state.Reference},
      {!Online.Reference.step} and {!Repack.Reference}: the same report
      as {!run}, field for field, on every input. *)
  val run :
    ?repack_threshold:Spp_num.Rat.t ->
    ?migration_cost:Spp_num.Rat.t ->
    ?exact_repack_max:int ->
    packer:Online.t ->
    Spp_core.Instance.Release.t ->
    report

  (** {!check} on rationals throughout, with its overlap part done by a
      pairwise O(s²) loop over the segment log: [Reference.check inst r]
      equals [check inst r], order included. *)
  val check : Spp_core.Instance.Release.t -> report -> violation list
end

(** [to_placement inst report] is the run as an offline placement
    ([x = col_lo / k], [y = start]) — [Some] iff no task was ever moved,
    in which case {!Spp_core.Validate.check_release} is a second,
    geometry-level oracle on the same run. *)
val to_placement : Spp_core.Instance.Release.t -> report -> Spp_geom.Placement.t option
