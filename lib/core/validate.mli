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

(** [check_prec inst placement] returns all violations (empty = valid),
    in this order:
    - per instance rect, in instance order, [Missing_rect] or
      [Dimension_changed];
    - one [Extra_rect] per placed rect the instance lacks, in placement
      order;
    - the [Geometric] violations, in {!Spp_geom.Placement.check}'s
      order;
    - one [Precedence (u, v)] per violated edge with both ends placed, in
      {!Spp_dag.Dag.edges} order.

    It runs on the placement's integer grids
    ({!Spp_geom.Placement.Grid}, with {!Spp_geom.Placement.on_grid}
    telling which path runs): the edge test [y_u + h_u > y_v] compares
    grid values. Off the grids the same checks run on rationals, with the
    same result. *)
val check_prec : Instance.Prec.t -> Spp_geom.Placement.t -> violation list

val is_valid_prec : Instance.Prec.t -> Spp_geom.Placement.t -> bool

(** [check_release inst placement] returns all violations (empty =
    valid): the coverage and [Geometric] violations in {!check_prec}'s
    order, then one [Release id] per placed task with [y < r], in
    instance order.

    Its grids are the placement's with the y scale also covering every
    release time, so the release test compares grid values too; the
    guard is {!Spp_geom.Placement.Grid}'s with the release times among
    the y values. Past it every check runs on rationals, with the same
    result. {!on_grid_release} tells which path runs. *)
val check_release : Instance.Release.t -> Spp_geom.Placement.t -> violation list

val is_valid_release : Instance.Release.t -> Spp_geom.Placement.t -> bool

(** [on_grid_release inst placement] is [true] when {!check_release}
    runs on the grids for this pair, [false] when it runs on rationals. *)
val on_grid_release : Instance.Release.t -> Spp_geom.Placement.t -> bool

(** {!check_prec} and {!check_release} on the simple paths: rationals
    throughout, geometry by the pairwise
    {!Spp_geom.Placement.Reference.check}, edge endpoints and release
    tasks looked up with the linear {!Spp_geom.Placement.find} instead of
    one id table. The differential-testing oracle: each returns the same
    list as its production counterpart, order included. Only the tests,
    [lib/check] and the benchmark harness call it. *)
module Reference : sig
  val check_prec : Instance.Prec.t -> Spp_geom.Placement.t -> violation list
  val check_release : Instance.Release.t -> Spp_geom.Placement.t -> violation list
end
