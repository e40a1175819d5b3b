(** Scalar fields over which the simplex solver is functorised.

    The solver in {!Simplex} is written once against {!S} and instantiated
    twice: {!Rat} gives the exact solver the paper's Lemma 3.3 needs (a basic
    optimal solution with certified optimality), and {!Float} gives a fast
    approximate solver used for cross-checking and timing comparisons. *)

module type S = sig
  type t

  val zero : t
  val one : t
  val add : t -> t -> t
  val sub : t -> t -> t
  val mul : t -> t -> t

  (** @raise Division_by_zero on zero divisor. *)
  val div : t -> t -> t

  val neg : t -> t

  (** Total order; for inexact instances this is a tolerance compare, so
      [compare x zero = 0] means "treat as zero when pivoting". *)
  val compare : t -> t -> int

  (** Whether an entry counts as zero. The simplex skips exactly these
      entries when it updates its tableau, so for an exact field it must
      mean equal to zero. *)
  val is_zero : t -> bool
  val of_int : int -> t
  val of_rat : Spp_num.Rat.t -> t
  val to_float : t -> float
  val to_string : t -> string
end

(** Exact rationals: the reference instance. *)
module Rat : S with type t = Spp_num.Rat.t = struct
  include Spp_num.Rat

  let of_rat r = r
end

(** IEEE doubles with an absolute pivot tolerance. Fine for well-scaled
    small LPs; never used where exactness matters. [is_zero] is that
    tolerance too, and it also decides which tableau entries an update
    skips (see {!Simplex}): an entry within [eps] of zero is left as it
    is, so results may differ from a dense update below [eps]. *)
module Float : S with type t = float = struct
  type t = float

  let eps = 1e-9
  let zero = 0.0
  let one = 1.0
  let add = ( +. )
  let sub = ( -. )
  let mul = ( *. )

  let div a b = if b = 0.0 then raise Division_by_zero else a /. b

  let neg = Stdlib.( ~-. )
  let compare a b = if Float.abs (a -. b) <= eps then 0 else Float.compare a b
  let is_zero a = Float.abs a <= eps
  let of_int = float_of_int
  let of_rat = Spp_num.Rat.to_float
  let to_float x = x
  let to_string = string_of_float
end
