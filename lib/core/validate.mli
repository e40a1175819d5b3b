(** Full validity checking for solutions of both problem variants.

    Layered on the geometric oracle of {!Spp_geom.Placement}: a solution is
    valid when it is geometrically valid {e and} respects the precedence
    edges ([y_s + h_s <= y_{s'}], Section 2) or the release times
    ([y_s >= r_s], Section 3). Every algorithm in this repository is tested
    against these independent checkers. *)

type violation =
  | Geometric of Spp_geom.Placement.violation
  | Missing_rect of int  (** instance rect absent from the placement *)
  | Extra_rect of int  (** placed rect not in the instance *)
  | Dimension_changed of int  (** placed copy has different w or h *)
  | Precedence of int * int  (** edge (u,v) with top(u) > bottom(v) *)
  | Release of int  (** y_s < r_s *)

val pp_violation : Format.formatter -> violation -> unit

(** [check_prec inst placement] returns all violations (empty = valid). *)
val check_prec : Instance.Prec.t -> Spp_geom.Placement.t -> violation list

val is_valid_prec : Instance.Prec.t -> Spp_geom.Placement.t -> bool

(** [check_release inst placement] returns all violations (empty = valid). *)
val check_release : Instance.Release.t -> Spp_geom.Placement.t -> violation list

val is_valid_release : Instance.Release.t -> Spp_geom.Placement.t -> bool

(** {!check_prec} and {!check_release} on the simple paths: geometry by
    the pairwise {!Spp_geom.Placement.Reference.check}, edge endpoints and
    release tasks looked up with the linear {!Spp_geom.Placement.find}
    instead of one id table. The differential-testing oracle: each returns
    the same list as its production counterpart, order included. Only the
    tests and [lib/check] call it. *)
module Reference : sig
  val check_prec : Instance.Prec.t -> Spp_geom.Placement.t -> violation list
  val check_release : Instance.Release.t -> Spp_geom.Placement.t -> violation list
end
