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
    algorithm's output and every cached answer passes through. *)
val check : t -> violation list

(** The pairwise O(n²) loop over all rectangle pairs, kept as the
    differential-testing oracle: [Reference.check t] equals [check t],
    order included. Only the tests and [lib/check] call it. *)
module Reference : sig
  val check : t -> violation list
end

val is_valid : t -> bool

val pp_violation : Format.formatter -> violation -> unit
