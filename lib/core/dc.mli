(** Algorithm 1 of the paper: divide-and-conquer strip packing under
    precedence constraints, with approximation factor [2 + log2(n+1)]
    (Theorem 2.3).

    The instance is split by the critical-path function F recomputed on the
    induced sub-DAG: rectangles entirely below the half-line [F(S)/2] go to
    [S_bot], those starting strictly above it to [S_top], and the band
    crossing it ([S_mid], never empty by Lemma 2.2 and pairwise independent
    by Lemma 2.1) is packed with the unconstrained subroutine [A]. The
    recursion stacks [DC(S_bot)], [A(S_mid)], [DC(S_top)].

    The default subroutine is NFDH, which satisfies the bound
    [A(S') <= 2·AREA(S') + max h] required by the analysis.

    {!pack} builds one array view per call: the rectangles by input
    position, an id → position table, the predecessors as position
    arrays and one topological order, from Kahn's algorithm over those
    arrays (F does not depend on which order). The recursion runs over
    position subsets, each kept in input order and in topological order.
    F on an induced sub-DAG is one pass over the subset in topological
    order, with a per-call stamp marking membership, and both lemmas are
    asserted on every call. The bands are stacked by passing the absolute
    base y down; the items are collected bottom band → middle band → top
    band and checked once by {!Spp_geom.Placement.of_items}. The result
    is identical to {!Reference.pack}'s: the same items in the same order,
    and the same stats.

    {2 The height grid}

    F and the bands are computed on integers: every height times the lcm
    [s] of the heights' denominators ({!Spp_num.Scale}), F per call in an
    int array, a rectangle in the bottom band when [2F <= H] and in the
    top band when [2(F - h) > H], for [H] the subset's largest F. The
    scale comes from the instance's heights alone. The guard: [s] fits a
    native int, every height is positive, and the heights' sum on the
    grid is at most 2{^60}; then [0 < F <= sum] and [2F] cannot wrap.
    Past the guard the same recursion computes F and the bands on
    rationals, with the same bands. The input decides; there is no flag,
    and {!on_grid} tells which. The placement itself ([y] of each item,
    the subroutine's packing) stays rational. *)

type stats = {
  levels : int;  (** recursion depth reached *)
  mid_calls : int;  (** number of [A]-packed bands *)
}

(** [split inst] computes one level of the DC partition (Algorithm 1 lines
    2–6) on the whole instance, by {!pack}'s own band step:
    [(s_bot, s_mid, s_top)] as id lists, each in instance order. Exposed
    so tests can check Lemma 2.2 ([s_mid] is never empty on a non-empty
    instance) and Lemma 2.1 ([s_mid] is pairwise independent) directly. *)
val split : Instance.Prec.t -> int list * int list * int list

(** [on_grid inst] is [true] when {!pack} and {!split} compute F on the
    height grid for [inst], [false] when they compute it on rationals. *)
val on_grid : Instance.Prec.t -> bool

(** [pack ?subroutine inst] returns the placement and statistics.
    [subroutine] defaults to {!Spp_pack.Level.nfdh}; any replacement must
    pack base-aligned at y = 0. *)
val pack :
  ?subroutine:(Spp_geom.Rect.t list -> Spp_geom.Placement.t) ->
  Instance.Prec.t ->
  Spp_geom.Placement.t * stats

(** The recursion on induced sub-instances ({!Instance.Prec.induced},
    hash tables of ids, {!Spp_dag.Dag.independent} for Lemma 2.1), each
    level shifting and merging its sub-placements, kept as the
    differential-testing oracle: [Reference.pack ?subroutine inst] returns
    what [pack ?subroutine inst] returns, items in order and stats. Only
    the tests, [lib/check] and the timing bench call it. *)
module Reference : sig
  val pack :
    ?subroutine:(Spp_geom.Rect.t list -> Spp_geom.Placement.t) ->
    Instance.Prec.t ->
    Spp_geom.Placement.t * stats
end

(** [height inst] is the height of [pack inst]. *)
val height : Instance.Prec.t -> Spp_num.Rat.t

(** [theorem_2_3_bound inst] is the proved bound
    [log2(n+1)·F(S) + 2·AREA(S)] that [pack]'s height never exceeds
    (the statement actually proved by induction in Theorem 2.3; the headline
    [(2 + log(n+1))·OPT] follows from the two lower bounds). Uses real
    [log2], returned as a float together with the exact height for
    comparison convenience. *)
val theorem_2_3_bound : Instance.Prec.t -> float
