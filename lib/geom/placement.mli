(** Placements: an assignment of a lower-left corner to every rectangle.

    A {e valid placement} (paper, Section 1) puts each rectangle [s] at
    [(x_s, y_s)] with [0 <= x_s <= 1 - w_s], [y_s >= 0], and no two
    rectangles overlapping (open interiors disjoint; shared edges allowed).
    The strip has width 1 throughout this repository, matching the paper's
    normalisation.

    Validation here is purely geometric; precedence and release-time
    validation live in {!Spp_core.Validate}, which layers the DAG and the
    release vector on top. *)

type pos = { x : Spp_num.Rat.t; y : Spp_num.Rat.t }

type item = { rect : Rect.t; pos : pos }

type t

(** [of_items items] builds a placement. Duplicate rect ids are rejected.
    @raise Invalid_argument on duplicate ids. *)
val of_items : item list -> t

val items : t -> item list
val size : t -> int

(** [find t ~id] is the item for rect [id], if placed. *)
val find : t -> id:int -> item option

(** [height t] is [max (y + h)] over all items — the packing height being
    minimised; [zero] for the empty placement. *)
val height : t -> Spp_num.Rat.t

(** [shift_y t dy] translates every rectangle up by [dy] (used when stacking
    sub-packings; [dy] may not make any y negative).
    @raise Invalid_argument if a rectangle would fall below the base. *)
val shift_y : t -> Spp_num.Rat.t -> t

(** [union a b] merges two placements with disjoint id sets.
    @raise Invalid_argument on id collision. *)
val union : t -> t -> t

(** [overlaps a pa b pb] decides open-interior intersection of two placed
    rectangles. *)
val overlaps : Rect.t -> pos -> Rect.t -> pos -> bool

type violation =
  | Out_of_strip of int  (** rect id sticks out of [0,1] horizontally or below 0 *)
  | Overlap of int * int  (** two rect ids with intersecting interiors *)

(** [check t] returns all geometric violations (empty = geometrically
    valid): first [Out_of_strip] for each rectangle outside the strip, in
    item order, then [Overlap (a, b)] for each overlapping pair with [a]
    before [b] in item order, sorted by the positions of [a], then [b].
    Overlap candidates come from one sweep over y ({!Sweep.pairs}) and
    are decided by {!overlaps}; a valid packing costs
    O(n log n + n / w_min). This is the independent certificate every
    algorithm's output and every cached answer passes through. It runs
    on the integer grids of {!Grid} when the placement fits them, and on
    rationals otherwise, with the same result. *)
val check : t -> violation list

(** The integer grids {!check} runs on.

    x and w are counted in units of [1/sx], where [sx] is the lcm of every
    x and w denominator; y and h in units of [1/sy], the lcm of every y
    and h denominator ({!Spp_num.Scale}). Both scales come from the items
    a check is handed, never from the solver that placed them.

    The guard: both scales fit a native int, every grid value is at most
    2{^60} in magnitude, and every height is positive. Then the sum of
    two grid values cannot wrap, each test is its rational counterpart
    multiplied through by a positive scale ([x + w > 1] becomes
    [x + w > sx]), and because every y-interval is non-empty the sweep's
    candidates already meet in y, so x alone decides an overlap. Any other
    placement runs the same sweep over rationals with {!overlaps}. The
    input decides; there is no flag. *)
module Grid : sig
  type t = private {
    sx : int;
    sy : int;  (** a multiple of the [?sy] passed to {!make} *)
    x : int array;  (** one entry per item, in item order *)
    w : int array;
    y : int array;
    h : int array;
  }

  (** [make ?sy items] puts [items] on their grids, the y scale also a
      multiple of [sy] (default 1), so a caller can compare its own
      y values ({!Spp_core.Validate}'s release times) on the same grid.
      @raise Spp_num.Scale.Off_grid past the guard. *)
  val make : ?sy:int -> item array -> t

  (** [check items grid] is {!check} on [items] in this order: on the
      grids when [grid] is [Some] of {!make}'s grids for [items] (with
      any [?sy]), on rationals when it is [None]. *)
  val check : item array -> t option -> violation list
end

(** [on_grid t] is [true] when {!check} runs on the grids for [t],
    [false] when it runs on rationals. *)
val on_grid : t -> bool

(** The pairwise O(n²) loop over all rectangle pairs, kept as the
    differential-testing oracle: [Reference.check t] equals [check t],
    order included. Only the tests and [lib/check] call it. *)
module Reference : sig
  val check : t -> violation list
end

val is_valid : t -> bool

val pp_violation : Format.formatter -> violation -> unit
