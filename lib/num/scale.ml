let limit = 1 lsl 60

exception Off_grid

let int_of b = if Bigint.is_small b then Bigint.small_value b else raise Off_grid

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

(* Both positive; the lcm only has to fit a native int. *)
let lcm a b =
  let a = a / gcd a b in
  if a > max_int / b then raise Off_grid else a * b

let extend s q =
  let d = int_of (Rat.den q) in
  if s mod d = 0 then s else lcm s d

let scale qs = List.fold_left extend 1 qs

(* Below 2^30 each (min_int excluded by the shift), the product is below
   2^60 with no division. *)
let mul a b =
  if (abs a lor abs b) lsr 30 = 0 || a = 0 || b = 0 then a * b
  else if a = min_int || b = min_int || abs a > limit / abs b then raise Off_grid
  else a * b

let to_grid s q = mul (int_of (Rat.num q)) (s / int_of (Rat.den q))

let of_grid s x = Rat.of_ints x s

let add a b =
  let c = a + b in
  if c > limit || c < -limit then raise Off_grid else c

let fits f = try Some (f ()) with Off_grid -> None
