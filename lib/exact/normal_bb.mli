(** Exact strip packing by branch and bound over normal positions.

    Unlike {!Order_search} (optimal only within bottom-left packings), this
    solver is {e exact}: in any optimal packing each rectangle can be pushed
    left and down until blocked (by the strip, another rectangle, or — for
    the precedence variant — a predecessor's top edge), so some optimal
    packing places every rectangle at a {e normal position}: x in the set
    of subset-sums of widths (Herz's normal patterns), and y either on the
    rectangle's precedence floor or resting on another rectangle's top edge.

    The search reads that canonical grounded packing in increasing (y, x)
    order of rectangle origins — an order that is automatically topological
    and in which every rectangle's supporter and predecessors precede it.
    Branches therefore extend the lex frontier only, with candidate corner
    points restricted to supported positions, pruned by

    - the shared incumbent (seeded by the bottom-left order search),
    - an admissible precedence-tail bound (longest descendant chain above
      the lex frontier), and a y-monotone area bound;
    - a dominance table keyed on the anonymised placed geometry plus the
      remaining set, which collapses states that differ only by a
      permutation of interchangeable same-shape rectangles. Dominance never
      cuts the optimum: equal keys have identical completion trees.

    The root-level first placements form a work queue that [workers]
    OCaml 5 domains drain work-stealing style, sharing the incumbent
    through an atomic compare-and-set. Incumbent pruning uses [>=] against
    heights that are always achievable, so the returned height is the exact
    optimum regardless of worker count or scheduling. Exponential; guarded
    to [n <= 9].

    {2 Two paths, one tree}

    {!solve} runs an integer kernel. Once per solve it scales x by the
    lcm [xs] of the width denominators and y by the lcm of the height
    denominators ({!Spp_num.Scale}), so every normal position is a
    native int: the xs are the sorted, deduplicated integer subset sums
    of the widths that leave the rectangle inside [xs], and the ys are
    sums of heights. The placed set, predecessors and open successors
    are bitmasks, positions and candidate ys live in per-worker arrays
    written in place, and a node allocates nothing but a dominance key
    that enters the table and an incumbent copy that gets published. A
    key is the mask and, sorted, one int per placed rectangle packing
    the positions of its x and y among the grid's subset sums with its
    identity, or its shape once every successor is placed: each part
    maps the rational key's [(x, y, w, h, sid)] one to one, so two keys
    are equal exactly when the rational ones are. The
    area bound is compared without division, as
    [ylast·xs + area >= best·xs] in grid units; the precedence-tail
    bound compares grid heights directly.

    The kernel walks the same tree as {!Rational}, node for node: the
    same root tasks, the same candidate ys and xs in the same order, the
    same lex-frontier, support and clash tests ({!Spp_geom.Placement.overlaps}'
    open intervals), the same prunes, dominance decisions and incumbent
    updates, and one {!Spp_util.Cancel.check} before each node is
    counted. So the height, the placement (items in input order, or the
    seed's when the search never improves on it), [nodes_expanded] and
    the {!Spp_obs.Profile} counts are identical; the [diff.bb] fuzz
    property checks all of them, with dominance on and off.

    {2 Which path runs}

    The input decides; there is no flag. The kernel runs when, on
    {!Spp_num.Scale}'s checked arithmetic, the x scale, the heights' sum
    on the y grid and the x scale times that sum are each at most
    2{^60}, and every width is in (0, 1] and every height positive, as
    {!Spp_geom.Rect.make} guarantees. Every coordinate, area term and
    scaled bound then fits a native int. {!on_grid} tells which path
    runs; any other input runs {!Rational}, which gives the same answer
    on rationals, only slower. *)

type outcome = {
  height : Spp_num.Rat.t;  (** the exact optimal height *)
  placement : Spp_geom.Placement.t;
  nodes_expanded : int;
}

(** [solve inst] computes OPT(S, E) exactly. [cancel] (default
    {!Spp_util.Cancel.never}) is polled at every node of both the seeding
    order search and the normal-position DFS; a tripped token aborts with
    [Spp_util.Cancel.Cancelled] rather than returning a partial answer, so
    a returned outcome is always the certified optimum.

    [workers] (default 1) runs the search across that many domains
    through {!Spp_util.Parallel.map} (one worker runs inline on the
    calling domain); the height is identical for every worker count, and
    an abort is raised only after every worker has joined. [dominance] (default
    [true]) toggles the dominance table — the [false] setting exists for
    the exhaustive cross-checks in the test suite and for measuring the
    table's pruning power in bench e20.

    Profile counters (nodes, pruned, dominated) are aggregated across
    workers and reported on the {e calling} domain, so engine attribution
    works unchanged.
    @raise Invalid_argument when [n > 9]. *)
val solve :
  ?cancel:Spp_util.Cancel.t ->
  ?workers:int ->
  ?dominance:bool ->
  Spp_core.Instance.Prec.t ->
  outcome

(** [on_grid inst] is [true] when {!solve} runs the integer kernel on
    [inst], [false] when it runs {!Rational}. *)
val on_grid : Spp_core.Instance.Prec.t -> bool

(** The search on exact rationals, the dominance key built from
    [Q.to_string] per placed rectangle: the path for inputs past the
    grid's guard and the oracle for the kernel in tests and [diff.bb].
    Same contract as {!solve}. *)
module Rational : sig
  val solve :
    ?cancel:Spp_util.Cancel.t ->
    ?workers:int ->
    ?dominance:bool ->
    Spp_core.Instance.Prec.t ->
    outcome
end
