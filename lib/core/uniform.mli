(** Section 2.2: precedence-constrained strip packing with uniform heights.

    When every rectangle has the same height [c], any solution can be
    normalised to a {e shelf solution} (each rectangle inside one height-[c]
    shelf) without growing the packing — the slide-down argument — which
    makes the problem equivalent to precedence-constrained bin packing
    (shelves ↔ bins). This module provides:

    - {!slide_down}: the normalisation itself;
    - {!next_fit_shelf}: the paper's algorithm [F], an absolute
      3-approximation (Theorem 2.6) whose skip count obeys Lemma 2.5;
    - {!prec_first_fit}: the Garey–Graham–Johnson–Yao-style first-fit for
      precedence bin packing (asymptotic regime), via the reduction;
    - {!wave_ffd}: a wave/level FFD heuristic baseline;
    - {!red_green_decomposition}: the shelf colouring used in Theorem 2.6's
      proof, exposed so tests can check the proof's invariants.

    The algorithms that need uniform heights accept the empty instance
    (there is no height to disagree) and return the empty placement.

    {!next_fit_shelf} runs on an array view: rectangles by input position,
    successors as positions, and a count of unclosed predecessors per
    rectangle. Closing a shelf decrements the counts of its rectangles'
    successors, and those reaching zero join the queue in input order,
    exactly the order a full rescan of the input finds them in. The shelves
    are identical to {!Reference.next_fit_shelf}'s, item for item. *)

(** [uniform_height inst] is the common height when all rects share one
    (Some c), or None. None on the empty instance. *)
val uniform_height : Instance.Prec.t -> Spp_num.Rat.t option

type shelf_stats = {
  shelves : int;  (** shelves opened (= height / c) *)
  skips : int;  (** shelves closed on an empty ready queue (Lemma 2.5) *)
}

(** [next_fit_shelf inst] runs algorithm [F]: one open shelf, a FIFO queue
    of available rectangles (all predecessors on {e closed} shelves), head
    placed left-to-right while it fits; the shelf closes when the head does
    not fit or the queue is empty (a {e skip}).
    @raise Invalid_argument if heights are not uniform. *)
val next_fit_shelf : Instance.Prec.t -> Spp_geom.Placement.t * shelf_stats

(** Algorithm F with id hash tables and a rescan of every rectangle and
    its predecessors each time a shelf closes, kept as the
    differential-testing oracle: [Reference.next_fit_shelf inst] returns
    what [next_fit_shelf inst] returns, items in order and stats. Only the
    tests, [lib/check] and the timing bench call it. *)
module Reference : sig
  val next_fit_shelf : Instance.Prec.t -> Spp_geom.Placement.t * shelf_stats
end

(** [prec_first_fit inst] processes rectangles in topological order and
    places each in the lowest shelf that is strictly above all its
    predecessors' shelves and has room — first-fit generalised with
    precedence eligibility (the natural reading of the GGJY reduction).
    @raise Invalid_argument if heights are not uniform. *)
val prec_first_fit : Instance.Prec.t -> Spp_geom.Placement.t * shelf_stats

(** [wave_ffd inst] packs in waves: all currently-available rectangles are
    packed by first-fit-decreasing into fresh shelves, then the next wave
    becomes available. Simple baseline; can be a Θ(path-length) factor worse.
    @raise Invalid_argument if heights are not uniform. *)
val wave_ffd : Instance.Prec.t -> Spp_geom.Placement.t * shelf_stats

(** [slide_down inst placement] normalises a valid placement of a
    uniform-height instance into a shelf placement of no greater height
    (Section 2.2's conversion): processing rectangles bottom-up, each snaps
    to the base of the shelf containing its bottom edge.
    @raise Invalid_argument if heights are not uniform. *)
val slide_down : Instance.Prec.t -> Spp_geom.Placement.t -> Spp_geom.Placement.t

(** [red_green_decomposition inst placement] colours the shelves of a shelf
    placement as in Theorem 2.6's proof: scanning bottom-up, two consecutive
    shelves whose rectangles jointly cover area >= 1 are red (density >=
    1/2), otherwise the current shelf is green. Returns [(reds, greens)].
    @raise Invalid_argument on non-shelf placements. *)
val red_green_decomposition : Instance.Prec.t -> Spp_geom.Placement.t -> int * int
