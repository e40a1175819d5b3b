(** Exact rationals on one integer grid.

    An integer kernel that replaces a rational loop multiplies every
    value of one axis by the lcm [s] of the axis's denominators, works on
    the resulting native ints, and turns its results back into rationals
    once, at the end. This module holds the three pieces every such
    kernel shares: the scale, the conversions to and from the grid, and
    the arithmetic that proves the grid values fit.

    The fallback rule is the same everywhere: the input decides. A kernel
    computes its bounds with {!add} and {!mul} inside {!fits}; when any
    of them passes {!limit} (or a denominator passes [max_int]), {!fits}
    answers [None] and the caller runs its rational code instead. There
    is no flag. Every value a kernel then handles is at most [limit] in
    magnitude, so the sum or difference of two of them cannot wrap a
    native int. {!Spp_exact.Order_search} and {!Spp_sim.Sim} run on it. *)

(** 2{^60}. *)
val limit : int

(** Raised by {!scale}, {!to_grid}, {!add} and {!mul} when a value
    leaves the grid; {!fits} turns it into [None]. *)
exception Off_grid

(** [scale qs] is the lcm of the denominators of [qs] (1 when [qs] is
    empty). It may exceed {!limit}: a kernel bounds the grid values, not
    the scale. @raise Off_grid when it does not fit a native int. *)
val scale : Rat.t list -> int

(** [extend s q] is the lcm of [s > 0] and the denominator of [q], so
    [scale qs] is [List.fold_left extend 1 qs].
    @raise Off_grid when it does not fit a native int. *)
val extend : int -> Rat.t -> int

(** [to_grid s q] is [q·s] as an int, for [s] a multiple of the
    denominator of [q]. @raise Off_grid when [|q·s| > limit]. *)
val to_grid : int -> Rat.t -> int

(** [of_grid s x] is the rational [x/s]. *)
val of_grid : int -> int -> Rat.t

(** [add a b] is [a + b] for [|a|, |b| <= limit].
    @raise Off_grid when [|a + b| > limit]. *)
val add : int -> int -> int

(** [mul a b] is [a·b]. @raise Off_grid when [|a·b| > limit]. *)
val mul : int -> int -> int

(** [fits f] is [Some (f ())], or [None] when [f] raises {!Off_grid}. *)
val fits : (unit -> 'a) -> 'a option
