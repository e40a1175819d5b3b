(** Level (shelf) algorithms for strip packing without constraints.

    Classic Coffman–Garey–Johnson–Tarjan algorithms. All sort rectangles by
    non-increasing height and place them on horizontal levels; they differ in
    which open level receives the next rectangle. Packings start at y = 0;
    callers (notably {!Spp_core.Dc}) lift the items by their base.

    NFDH keeps only its open level and is linear after the sort;
    {!Reference.nfdh} runs it on the generic level packer, and the two
    return the same items in the same order.

    NFDH is the subroutine [A] that the paper's Algorithm 1 requires: it
    satisfies [A(S') <= 2·AREA(S') + max_{s∈S'} h_s], the only property
    Theorem 2.3's proof uses (the paper cites Steinberg/Schiermeyer, which
    also satisfy it; see DESIGN.md on this substitution). *)

(** [nfdh rects] — Next-Fit Decreasing Height: only the topmost level is
    open; a rectangle that does not fit closes it and opens a new one.
    Linear after the sort: only the open level is kept, and the items come
    out newest first, the order {!Reference.nfdh} returns. *)
val nfdh : Spp_geom.Rect.t list -> Spp_geom.Placement.t

(** [ffdh rects] — First-Fit Decreasing Height: every level stays open; a
    rectangle goes to the lowest level with enough residual width. Never
    worse than NFDH on the same input. *)
val ffdh : Spp_geom.Rect.t list -> Spp_geom.Placement.t

(** [bfdh rects] — Best-Fit Decreasing Height: the fitting level with the
    least residual width wins. *)
val bfdh : Spp_geom.Rect.t list -> Spp_geom.Placement.t

(** [nfdh_height rects] = [Placement.height (nfdh rects)] (used in bounds
    checks and benches). *)
val nfdh_height : Spp_geom.Rect.t list -> Spp_num.Rat.t

(** NFDH on the generic level packer, which hands the level choice a
    freshly reversed list of every level for each rectangle (quadratic in
    the number of levels), kept as the differential-testing oracle:
    [Reference.nfdh rects] returns what [nfdh rects] returns, item for
    item. Only the tests call it. *)
module Reference : sig
  val nfdh : Spp_geom.Rect.t list -> Spp_geom.Placement.t
end
