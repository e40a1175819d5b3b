(** Skyline (envelope) structure for bottom-left-style placement.

    Maintains the upper contour of the packed region as a left-to-right list
    of horizontal segments over the strip [\[0, 1\]]. Used by the
    bottom-left baseline packer in {!Spp_pack.Bottom_left}, by the
    precedence-aware list scheduler in {!Spp_core.List_schedule} and by the
    exact order search in {!Spp_exact.Order_search}.

    One placement rule, in two number forms. A rectangle of width [w] goes
    to the lowest position with [y >= y_min], then the leftmost. The
    candidates are the left edges of the contour's segments; a window that
    leaves the strip is replaced by the right-flush position [1 - w].
    After each placement, adjacent segments of equal height are merged, so
    a contour has exactly one segment list. {!place} does this on exact
    rationals, O(segments) per candidate. {!Int} does the same on an
    integer grid (the caller scales each axis to integers), for searches
    that place millions of rectangles. *)

type t

(** [create ()] is the empty skyline over strip width 1 (contour at y = 0). *)
val create : unit -> t

(** [segments t] is the contour as [(x, width, y)] triples, left to right;
    widths are positive and sum to 1. *)
val segments : t -> (Spp_num.Rat.t * Spp_num.Rat.t * Spp_num.Rat.t) list

(** [place t ~w ~h ~y_min] chooses the position minimising (support y, then
    x) over all candidate left edges, subject to [y >= y_min], commits the
    rectangle to the skyline and returns its position.
    @raise Invalid_argument if [w] exceeds the strip width. *)
val place : t -> w:Spp_num.Rat.t -> h:Spp_num.Rat.t -> y_min:Spp_num.Rat.t -> Placement.pos

(** [height t] is the highest contour y. *)
val height : t -> Spp_num.Rat.t

(** [copy t] is an independent snapshot (O(1): the contour is persistent
    data behind a mutable head). Used by branch-and-bound search. *)
val copy : t -> t

(** The placement rule above on integer coordinates, over the strip
    [\[0, width)], as a stack of contours for depth-first search.

    Level 0 is the empty contour. [place] reads level [d] and writes level
    [d + 1], leaving level [d] as it was, so a search that backtracks to
    level [d] just places from it again. Every level has a fixed row of
    [2 * levels + 1] segment cells (one placement adds at most two
    segments), so nothing is allocated after {!create}.

    Scaled by the same factors, a sequence of placements gives the same
    positions and the same contours as the rational {!place}; [test_geom]
    checks this on random sequences. The caller keeps every coordinate
    small enough not to overflow. *)
module Int : sig
  type t

  (** [create ~width ~levels] has [levels + 1] levels, room for [levels]
      placements on top of each other.
      @raise Invalid_argument if [width < 1] or [levels < 0]. *)
  val create : width:int -> levels:int -> t

  (** [place t ~level ~w ~h ~y_min] places a [w] by [h] rectangle on the
      contour of [level] by the rule above and writes the result to
      [level + 1]. The chosen position is [(x t ~level, y t ~level)] until
      the next [place] from [level].
      @raise Invalid_argument unless [1 <= w <= width]. *)
  val place : t -> level:int -> w:int -> h:int -> y_min:int -> unit

  (** The position chosen by the last {!place} from [level]. *)
  val x : t -> level:int -> int

  val y : t -> level:int -> int

  (** [segments t ~level] is that level's contour as [(x, width, y)]
      triples, left to right. *)
  val segments : t -> level:int -> (int * int * int) list
end
