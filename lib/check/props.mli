(** The property families, each mapped to the theorem or invariant it
    machine-checks (see DESIGN.md §Correctness harness for the full map):

    {b Soundness} ([sound.*]) — every algorithm's output passes the
    independent validators {!Spp_core.Validate.check_prec} /
    [check_release] (geometry, completeness, precedence edges, release
    floors).

    {b Guarantee certification} ([guar.*]) — the paper's proved bounds,
    evaluated exactly: DC within the Theorem 2.3 induction bound
    [log2(n+1)·F + 2·AREA]; algorithm F within the Theorem 2.6 accounting
    [2·AREA + F(S) + c] (Lemma 2.5 skips included); the APTAS's certified
    accounting of Theorem 3.5 ([height ≤ fractional + occurrences],
    [lower_bound ≤] every valid packing's height); every height at or
    above the Section 2/3 lower bounds; engine results identical through
    the disk-store round trip.

    {b Metamorphic / differential} ([meta.*], [diff.*]) — invariance under
    strictly monotone id relabeling; monotonicity of the bounds and of the
    exact optimum under DAG edge removal and release slackening; agreement
    of the independent exact solvers on small instances; heuristics
    sandwiched between the lower bounds and nothing below the exact
    optimum; the sweep validators ([diff.validate], [diff.sim.check],
    tag [validate]) agree list for list with the pairwise reference
    loops on valid outputs and seeded corruptions of them; the engine's
    byte path ([diff.hitpath], tag [hitpath]) answers a stream of an
    instance, re-spellings of it and repeats exactly as the parse path
    does, never serves a degraded answer, and counts one LRU hit or miss
    per request; the integer order-search kernel ([diff.order], tag
    [kernel]) returns what {!Spp_exact.Order_search.Reference} returns,
    node for node, on the kernel and on its fallback; the exact simplex
    ([diff.simplex], tag [lp]) returns what the dense
    {!Spp_lp.Simplex.Reference} returns, pivot for pivot, on a seeded
    LP and on warm-started masters taking the same appended columns,
    also scaled past the one-word range so that it falls back to boxed
    rationals; the one-word rationals ([diff.word], tag [lp]) return
    exactly the boxed rationals' normalised values, or overflow exactly
    when those leave the range; DC
    and algorithm F on index arrays ([diff.dc], [diff.f], tag [index])
    return what {!Spp_core.Dc.Reference} and
    {!Spp_core.Uniform.Reference} return, item for item and stats, on the
    case and on a layered or series-parallel instance with n in 64..512
    and negative, non-contiguous ids drawn from its stream seed.

    {b Simulation} ([sound.sim.*], [sim.*]) — online runs through
    {!Spp_sim.Sim} pass the independent segment validator at every
    instant, never start before release, keep the exact competitive
    ratio at or above 1 against the Section 3 (and certified APTAS)
    lower bounds, repack only with strict fragmentation decrease and
    honest per-cell cost accounting, and arrival streams replay bit for
    bit from {!stream_seed_of}. The loop on integer ticks ([diff.sim],
    tag [sim]) returns what {!Spp_sim.Sim.Reference.run} returns, field
    for field and segment for segment, under every packer and repack
    threshold, on drawn instances scaled to large values, past the
    guard and at its edges, and {!Spp_sim.Sim.on_kernel} agrees with
    the guard recomputed on rationals.

    Every property takes an {!Spp_core.Io.parsed} instance and returns
    [Skip] when its guard (variant, uniformity, size gate for the
    exponential solvers) does not hold. *)

type t = Spp_core.Io.parsed Runner.property

(** [stream_seed_of parsed] is the deterministic arrival-stream seed for
    a case: the CRC-32 of its canonical printed form. [spp fuzz] records
    it in failure reports so [--replay-seed] reproduces not just the
    instance but the exact arrival stream the sim properties derived
    from it. *)
val stream_seed_of : Spp_core.Io.parsed -> int

(** All shipped properties, in evaluation order. *)
val all : t list

(** [select ?algos ~variant ()] filters {!all}: keep properties matching
    the variant ([`Both] keeps everything) and, when [algos] is given,
    tagged with at least one of the names (unknown names raise).
    @raise Invalid_argument on an algo name no property is tagged with. *)
val select : ?algos:string list -> variant:Arb.variant -> unit -> t list

(** The planted-bug self test: a deliberately broken solver (every
    rectangle above the base is lowered by half the minimum height — the
    classic off-by-one in y) whose unsoundness the harness must detect and
    shrink to a minimal stacked pair. Never part of {!all}; used by
    [spp fuzz --self-test] and the tier-1 suite to prove the
    detect-shrink-replay pipeline works. *)
val planted_bug : t
