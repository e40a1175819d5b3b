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
    to [n <= 9]. *)

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
