(** Exhaustive search over placement orders with bottom-left placement.

    For general (non-uniform-height) precedence instances there is no known
    compact exact algorithm; this module searches {e all} topological orders
    (respectively all orders, for release instances), placing each rectangle
    at its lowest-then-leftmost skyline position ({!Spp_geom.Skyline}).
    The search is depth first; a child is pruned when its height reaches
    the best complete packing found so far. There is no lower-bound stop:
    the search runs until every order is placed or pruned.

    The result is the optimum {e within the class of bottom-left packings},
    an upper bound on OPT that is tight on most small instances; DESIGN.md
    and EXPERIMENTS.md are explicit that it is used as a reference point,
    not as a certified optimum. Guarded to [n <= 10].

    {2 Two paths, one tree}

    {!best_prec} and {!best_release} run an integer kernel. Once per solve
    it scales x by the lcm of the width denominators and y by the lcm of
    the height (and release) denominators. Placed sets and predecessor
    sets are bitmasks, floors are read from arrays, and the contour is a
    {!Spp_geom.Skyline.Int} stack with one level per depth, so no node
    allocates. The best packing is turned back into rationals once, at
    the end.

    The kernel walks the same tree as {!Reference}, node for node: the
    same children in input order, one {!Spp_util.Cancel.check} and one
    node count per node, a pruned child whenever its height reaches the
    incumbent, and a new incumbent only on a strictly lower height. So
    the height, the placement (items newest first), [nodes_expanded] and
    the {!Spp_obs.Profile} counts are identical; the [diff.order] fuzz
    property checks all four.

    {2 Which path runs}

    The input decides. Before searching, the kernel proves on
    {!Spp_num.Scale}'s checked native arithmetic that the x scale, and
    the y scale times (max release + sum of heights), are at most
    2{^60}; every coordinate then fits a native int. It also needs each
    width in (0, 1], each height positive and each release non-negative,
    as the instance constructors guarantee, and the y scale to fit a
    native int. Any other input runs {!Reference}, which gives the same
    answer on rationals, only slower. *)

type outcome = {
  height : Spp_num.Rat.t;
  placement : Spp_geom.Placement.t;
  nodes_expanded : int;
}

(** [best_prec inst] searches topological orders (precedence floors on y).
    [cancel] (default {!Spp_util.Cancel.never}) is polled at every search
    node; a tripped token aborts with [Spp_util.Cancel.Cancelled].
    @raise Invalid_argument when [n > 10]. *)
val best_prec : ?cancel:Spp_util.Cancel.t -> Spp_core.Instance.Prec.t -> outcome

(** [best_release inst] searches all orders (release floors on y). Same
    [cancel] contract as {!best_prec}.
    @raise Invalid_argument when [n > 10]. *)
val best_release : ?cancel:Spp_util.Cancel.t -> Spp_core.Instance.Release.t -> outcome

(** [on_kernel_prec inst] is [true] when {!best_prec} runs the integer
    kernel on [inst], [false] when it runs {!Reference}. *)
val on_kernel_prec : Spp_core.Instance.Prec.t -> bool

(** The same for {!best_release}. *)
val on_kernel_release : Spp_core.Instance.Release.t -> bool

(** The search on lists and exact rationals, over a persistent
    {!Spp_geom.Skyline}: the oracle for the kernel in tests, and the path
    for inputs the kernel cannot take. Same contracts as the functions
    above. *)
module Reference : sig
  val best_prec : ?cancel:Spp_util.Cancel.t -> Spp_core.Instance.Prec.t -> outcome
  val best_release : ?cancel:Spp_util.Cancel.t -> Spp_core.Instance.Release.t -> outcome
end
