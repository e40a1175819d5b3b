(** Scalar fields over which the simplex solver is functorised.

    The solver in {!Simplex} is written once against {!S} and instantiated
    three times: {!Rat} gives the exact solver the paper's Lemma 3.3 needs (a
    basic optimal solution with certified optimality), {!Word} gives the
    same values without allocating while they fit in one word, and {!Float}
    gives a fast approximate solver used for cross-checking and timing
    comparisons. *)

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

(** Exact rationals packed into one immediate int: the field {!Simplex.Exact}
    pivots on first.

    A value is a normalised rational [n/d] (the form {!Rat} keeps) with
    [|n| < 2{^30}] and [0 < d < 2{^30}], stored as [n·2{^30} + d]: [d] in
    the low 30 bits, [n] above them. Zero is [0/1], so equal values have
    equal words and [is_zero] is one comparison. Every operation returns
    exactly the value {!Rat} returns, in the same normalised form, or
    raises {!Overflow} when that value's numerator or denominator leaves
    the range; it never wraps and never allocates. Operands are below
    2{^30}, so every product of two parts is below 2{^60} and every sum of
    two such products below 2{^61}, inside the 63-bit native int. *)
module Word : sig
  include S

  (** Raised by an operation whose exact result leaves the range, and by
      [of_int] / [of_rat] on an argument outside it. *)
  exception Overflow

  (** The same rational, boxed. Never fails. *)
  val to_rat : t -> Spp_num.Rat.t
end = struct
  type t = int

  exception Overflow

  let bits = 30
  let limit = 1 lsl bits
  let mask = limit - 1
  let num x = x asr bits
  let den x = x land mask
  let zero = 1
  let one = limit + 1

  (* [n/d] already normalised, [d > 0]. *)
  let fits n d =
    if n <= -limit || n >= limit || d >= limit then raise_notrace Overflow;
    (n lsl bits) lor d

  let rec gcd a b = if b = 0 then a else gcd b (a mod b)

  (* Sums by Henrici's rule: with g = gcd (b, d), the sum a/b + c/d has
     numerator t = a·(d/g) + c·(b/g), which is coprime to b/g and d/g, so
     only gcd (t, g) is left to divide out. *)
  let add x y =
    let a = num x and b = den x and c = num y and d = den y in
    if b = d then begin
      let t = a + c in
      if b = 1 then fits t 1
      else if t = 0 then zero
      else begin
        let g = gcd (abs t) b in
        fits (t / g) (b / g)
      end
    end
    else if b = 1 then fits ((a * d) + c) d
    else if d = 1 then fits (a + (c * b)) b
    else begin
      let g = gcd b d in
      if g = 1 then fits ((a * d) + (c * b)) (b * d)
      else begin
        let b' = b / g and d' = d / g in
        let t = (a * d') + (c * b') in
        if t = 0 then zero
        else begin
          let g2 = gcd (abs t) g in
          fits (t / g2) (b' * (d / g2))
        end
      end
    end

  let neg x = ((-num x) lsl bits) lor den x
  let sub x y = add x (neg y)

  (* Products by cross-reduction: a/b · c/d with gcd (a, d) and gcd (c, b)
     divided out first is already normalised. Whole parts skip the gcd. *)
  let mul x y =
    let a = num x and c = num y in
    if a = 0 || c = 0 then zero
    else begin
      let b = den x and d = den y in
      let g1 = if d = 1 then 1 else gcd (abs a) d and g2 = if b = 1 then 1 else gcd (abs c) b in
      if g1 = 1 && g2 = 1 then fits (a * c) (b * d)
      else fits (a / g1 * (c / g2)) (b / g2 * (d / g1))
    end

  (* 1/(c/d) is d/c with the sign moved up: in range whenever c/d is. *)
  let div x y =
    let c = num y and d = den y in
    if c = 0 then raise Division_by_zero;
    mul x (if c > 0 then (d lsl bits) lor c else ((-d) lsl bits) lor -c)

  let compare x y =
    if x = y then 0
    else begin
      let b = den x and d = den y in
      if b = d then Int.compare (num x) (num y) else Int.compare (num x * d) (num y * b)
    end

  let is_zero x = x = zero
  let of_int n = fits n 1

  let of_rat r =
    let n = Spp_num.Rat.num r and d = Spp_num.Rat.den r in
    if Spp_num.Bigint.is_small n && Spp_num.Bigint.is_small d then
      fits (Spp_num.Bigint.small_value n) (Spp_num.Bigint.small_value d)
    else raise_notrace Overflow

  let to_rat x = Spp_num.Rat.of_ints (num x) (den x)
  let to_float x = float_of_int (num x) /. float_of_int (den x)

  let to_string x =
    if den x = 1 then string_of_int (num x) else Printf.sprintf "%d/%d" (num x) (den x)
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
