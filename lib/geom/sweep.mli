(** One sweep over one axis: the candidate pairs of a disjointness check.

    Two axis-parallel boxes overlap exactly when their projections
    overlap on both axes (Fekete–Köhler–Teich's packing classes), so a
    pair can only collide if its intervals on one chosen axis intersect.
    The sweep visits items in order of their interval's start and keeps
    the items whose interval is still open; only those are tested against
    the next item. {!Placement.check} sweeps over y, and the segment-log
    validator [Spp_sim.Sim.check] over time.

    The loop is generic in the endpoints: the integer-grid paths pass
    [Int.compare] over grid values and their rational fallbacks
    [Spp_num.Rat.compare] over the rationals, and both run this one loop.
    Any [compare] that orders the endpoints as the rationals they stand
    for gives the same pairs in the same order.

    In a valid packing the items open at one instant are pairwise
    disjoint on the other axis, so at most [1 / w_min] of them are open
    and the sweep does O(n log n + n / w_min) work. On a heavily
    overlapping input it tests up to all n²/2 pairs, as many as it may
    have to report. *)

(** [pairs ~compare ~lo ~hi test] is every index pair [(i, j)] with
    [i < j] for which [test i j] holds, in lexicographic order — the
    pairs, and the order, of the double loop
    [for i, for j > i, if test i j] — provided [test i j] implies that
    the open intervals [(lo.(i), hi.(i))] and [(lo.(j), hi.(j))]
    intersect. [test] is called only with [i < j], and only on pairs
    where the interval that starts first (by [compare] on [lo], ties in
    index order) is still open where the other starts:
    [lo.(first) <= lo.(other) < hi.(first)]. So when every interval is
    non-empty, each tested pair's intervals intersect, and [test] need
    not check this axis again. [lo] and [hi] have one entry per item. *)
val pairs :
  compare:('a -> 'a -> int) -> lo:'a array -> hi:'a array -> (int -> int -> bool) -> (int * int) list
