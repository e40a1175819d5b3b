(* Tests for Spp_num: bigint arithmetic cross-checked against native ints,
   decimal I/O round trips, Knuth-division edge cases, and rational field
   laws. *)

module B = Spp_num.Bigint
module Q = Spp_num.Rat

let check_b msg expected actual =
  Alcotest.(check string) msg expected (B.to_string actual)

let bi = B.of_int

(* ------------------------------------------------------------------ *)
(* Bigint unit tests *)

let test_of_int_small () =
  check_b "zero" "0" (bi 0);
  check_b "one" "1" (bi 1);
  check_b "neg" "-17" (bi (-17));
  check_b "limb boundary" "32768" (bi 32768);
  check_b "limb boundary - 1" "32767" (bi 32767);
  check_b "two limbs" "1073741824" (bi 1073741824)

let test_min_int () =
  (* abs min_int overflows natively; of_int must still be exact. *)
  check_b "min_int" (string_of_int min_int) (bi min_int);
  check_b "max_int" (string_of_int max_int) (bi max_int);
  Alcotest.(check (option int)) "roundtrip min_int" (Some min_int) (B.to_int_opt (bi min_int));
  Alcotest.(check (option int)) "roundtrip max_int" (Some max_int) (B.to_int_opt (bi max_int))

let test_to_int_overflow () =
  let big = B.mul (bi max_int) (bi 2) in
  Alcotest.(check (option int)) "overflow detected" None (B.to_int_opt big);
  Alcotest.(check (option int)) "neg overflow" None (B.to_int_opt (B.neg big))

let test_add_sub () =
  check_b "add" "100000000000000000000" (B.add (B.of_string "99999999999999999999") B.one);
  check_b "sub to zero" "0" (B.sub (B.of_string "12345678901234567890") (B.of_string "12345678901234567890"));
  check_b "sub sign flip" "-1" (B.sub (bi 5) (bi 6));
  check_b "add mixed signs" "3" (B.add (bi 10) (bi (-7)));
  check_b "add neg neg" "-30" (B.add (bi (-10)) (bi (-20)))

let test_mul () =
  check_b "mul zero" "0" (B.mul (bi 12345) B.zero);
  check_b "mul signs" "-6" (B.mul (bi 2) (bi (-3)));
  check_b "mul big"
    "121932631137021795226185032733622923332237463801111263526900"
    (B.mul (B.of_string "123456789012345678901234567890") (B.of_string "987654321098765432109876543210"));
  (* 2^200 computed by repeated squaring must match pow. *)
  check_b "pow vs mul" (B.to_string (B.pow B.two 200))
    (B.mul (B.pow B.two 100) (B.pow B.two 100))

let test_divmod_basic () =
  let q, r = B.divmod (bi 17) (bi 5) in
  check_b "q" "3" q;
  check_b "r" "2" r;
  let q, r = B.divmod (bi (-17)) (bi 5) in
  check_b "q neg" "-3" q;
  check_b "r neg (sign of dividend)" "-2" r;
  let q, r = B.divmod (bi 17) (bi (-5)) in
  check_b "q negdiv" "-3" q;
  check_b "r negdiv" "2" r;
  let q, r = B.divmod (bi 4) (bi 7) in
  check_b "q small" "0" q;
  check_b "r small" "4" r

let test_divmod_long () =
  (* Multi-limb division exercising Knuth algorithm D, including the rare
     add-back branch, via reconstruction checks on structured values. *)
  let a = B.of_string "340282366920938463463374607431768211457" (* 2^128 + 1 *) in
  let b = B.of_string "18446744073709551616" (* 2^64 *) in
  let q, r = B.divmod a b in
  check_b "q = 2^64" "18446744073709551616" q;
  check_b "r = 1" "1" r;
  (* Divisor with tiny top limb forces heavy normalisation. *)
  let a = B.pow (bi 10) 60 in
  let b = B.add (B.pow B.two 45) B.one in
  let q, r = B.divmod a b in
  check_b "reconstruct" (B.to_string a) (B.add (B.mul q b) r);
  Alcotest.(check bool) "r < b" true (B.compare r b < 0)

let test_division_by_zero () =
  Alcotest.check_raises "div by zero" Division_by_zero (fun () -> ignore (B.divmod B.one B.zero))

let test_gcd () =
  check_b "gcd basic" "6" (B.gcd (bi 48) (bi 18));
  check_b "gcd with zero" "5" (B.gcd (bi 5) B.zero);
  check_b "gcd zero zero" "0" (B.gcd B.zero B.zero);
  check_b "gcd negatives" "4" (B.gcd (bi (-12)) (bi 8));
  (* gcd(fib 60, fib 59) = 1 *)
  let rec fib a b n = if n = 0 then a else fib b (B.add a b) (n - 1) in
  check_b "gcd consecutive fibs" "1" (B.gcd (fib B.zero B.one 60) (fib B.zero B.one 59))

let test_string_roundtrip () =
  List.iter
    (fun s -> Alcotest.(check string) ("roundtrip " ^ s) s B.(to_string (of_string s)))
    [ "0"; "1"; "-1"; "32768"; "99999"; "123456789012345678901234567890";
      "-984376598437659823746587234658972346598723465987234659872346598" ];
  check_b "plus sign" "42" (B.of_string "+42");
  Alcotest.check_raises "empty" (Invalid_argument "Bigint.of_string: empty string") (fun () ->
      ignore (B.of_string ""))

let test_karatsuba_crossover () =
  (* Operands far above the Karatsuba threshold (~32 limbs = ~145 decimal
     digits); validate against a symbolically known product and against the
     independent (schoolbook) division path. *)
  let p200 = B.pow (bi 10) 200 and p150 = B.pow (bi 10) 150 in
  let a = B.add p200 (bi 7) and b = B.add p150 (bi 3) in
  let product = B.mul a b in
  let expected =
    B.add
      (B.add (B.pow (bi 10) 350) (B.mul_int p200 3))
      (B.add (B.mul_int p150 7) (bi 21))
  in
  check_b "known product" (B.to_string expected) product;
  let q0, r0 = B.divmod product a in
  check_b "div back (q)" (B.to_string b) q0;
  check_b "div back (r)" "0" r0

let prop_karatsuba_matches_division =
  (* Large random operands: (a*b)/a = b with remainder 0; division is
     schoolbook, so this cross-checks the Karatsuba path end to end. *)
  QCheck.Test.make ~name:"karatsuba product consistent with division" ~count:50
    (QCheck.pair (QCheck.int_range 120 260) (QCheck.int_range 120 260))
    (fun (da, db) ->
      let digits rng n =
        String.concat "" ("1" :: List.init n (fun i -> string_of_int ((i * rng) mod 10)))
      in
      let a = B.of_string (digits da da) and b = B.of_string (digits db db) in
      let p = B.mul a b in
      let q0, r0 = B.divmod p a in
      B.equal q0 b && B.is_zero r0)

let test_factorial_100 () =
  let rec fact acc n = if n = 0 then acc else fact (B.mul acc (bi n)) (n - 1) in
  (* Known value of 100! *)
  check_b "100!"
    ("93326215443944152681699238856266700490715968264381621468592963895217599993229915"
    ^ "608941463976156518286253697920827223758251185210916864000000000000000000000000")
    (fact B.one 100)

let test_compare () =
  Alcotest.(check int) "lt" (-1) (B.compare (bi 3) (bi 4));
  Alcotest.(check int) "negs" 1 (B.compare (bi (-3)) (bi (-4)));
  Alcotest.(check int) "cross sign" (-1) (B.compare (bi (-1)) (bi 1));
  Alcotest.(check bool) "structural equality" true (B.equal (B.of_string "12345678999") (B.of_string "12345678999"))

let test_to_float () =
  Alcotest.(check (float 1e-9)) "small" 42.0 (B.to_float (bi 42));
  Alcotest.(check (float 1e6)) "2^62" (2.0 ** 62.0) (B.to_float (B.pow B.two 62));
  Alcotest.(check (float 1e-9)) "neg" (-7.0) (B.to_float (bi (-7)))

let test_misc_queries () =
  Alcotest.(check int) "limb_count zero" 0 (B.limb_count B.zero);
  Alcotest.(check bool) "limb_count grows" true (B.limb_count (B.pow B.two 100) > B.limb_count (bi 5));
  Alcotest.(check int) "sign pos" 1 (B.sign (bi 3));
  Alcotest.(check int) "sign neg" (-1) (B.sign (bi (-3)));
  Alcotest.(check int) "sign zero" 0 (B.sign B.zero);
  Alcotest.(check int) "compare_int" 0 (B.compare_int (bi 42) 42);
  Alcotest.(check int) "compare_int lt" (-1) (B.compare_int (bi 41) 42);
  Alcotest.(check bool) "hash consistent" true (B.hash (bi 7) = B.hash (B.of_string "7"));
  check_b "mul_int" "-21" (B.mul_int (bi 7) (-3));
  let open B.Infix in
  Alcotest.(check bool) "infix" true ((bi 2 + bi 3) * bi 4 = bi 20 && bi 3 < bi 4 && bi 9 / bi 2 = bi 4)

let test_small_big_boundary () =
  (* The small/big representation boundary: every native int except
     min_int is small; crossing max_int in either direction goes big and
     coming back re-canonicalises to small. *)
  Alcotest.(check bool) "max_int is small" true (B.is_small (bi max_int));
  Alcotest.(check bool) "min_int+1 is small" true (B.is_small (bi (min_int + 1)));
  Alcotest.(check bool) "min_int is big" false (B.is_small (bi min_int));
  Alcotest.(check bool) "max_int+1 is big" false (B.is_small (B.add (bi max_int) B.one));
  Alcotest.(check bool) "re-canonicalises" true
    (B.is_small (B.sub (B.add (bi max_int) B.one) B.one));
  Alcotest.(check int) "small_value" 42 (B.small_value (bi 42));
  (* Native ints are 63-bit: max_int = 2^62 - 1, min_int = -2^62. *)
  check_b "add overflow" "4611686018427387904" (B.add (bi max_int) B.one);
  check_b "sub underflow" "-4611686018427387905" (B.sub (bi min_int) B.one);
  check_b "mul overflow" "21267647932558653957237540927630737409" (B.mul (bi max_int) (bi max_int));
  check_b "min_int negates" "4611686018427387904" (B.neg (bi min_int));
  check_b "min_int abs" "4611686018427387904" (B.abs (bi min_int));
  check_b "min_int divmod" (string_of_int (min_int / 2)) (fst (B.divmod (bi min_int) (bi 2)));
  Alcotest.(check bool) "equal across representations" true
    (B.equal (bi min_int) (B.sub (B.add (bi min_int) B.one) B.one))

(* ------------------------------------------------------------------ *)
(* Bigint property tests vs native ints *)

let int_pair = QCheck.pair (QCheck.int_range (-1_000_000_000) 1_000_000_000)
    (QCheck.int_range (-1_000_000_000) 1_000_000_000)

let prop_add_matches_native =
  QCheck.Test.make ~name:"bigint add matches native" ~count:500 int_pair (fun (a, b) ->
      B.to_int_exn (B.add (bi a) (bi b)) = a + b)

let prop_mul_matches_native =
  QCheck.Test.make ~name:"bigint mul matches native" ~count:500 int_pair (fun (a, b) ->
      B.to_int_exn (B.mul (bi a) (bi b)) = a * b)

let prop_divmod_matches_native =
  QCheck.Test.make ~name:"bigint divmod matches native" ~count:500 int_pair (fun (a, b) ->
      QCheck.assume (b <> 0);
      let q, r = B.divmod (bi a) (bi b) in
      B.to_int_exn q = a / b && B.to_int_exn r = a mod b)

let big_gen =
  (* Random bigints with up to ~40 decimal digits, built from strings. *)
  QCheck.make
    ~print:B.to_string
    QCheck.Gen.(
      let* digits = int_range 1 40 in
      let* neg = bool in
      let* first = int_range 1 9 in
      let* rest = list_repeat (digits - 1) (int_range 0 9) in
      let s = String.concat "" (List.map string_of_int (first :: rest)) in
      return (if neg then B.neg (B.of_string s) else B.of_string s))

let prop_divmod_reconstruct =
  QCheck.Test.make ~name:"bigint divmod reconstructs" ~count:500 (QCheck.pair big_gen big_gen)
    (fun (a, b) ->
      QCheck.assume (not (B.is_zero b));
      let q, r = B.divmod a b in
      B.equal a (B.add (B.mul q b) r)
      && B.compare (B.abs r) (B.abs b) < 0
      && (B.is_zero r || B.sign r = B.sign a))

let prop_string_roundtrip =
  QCheck.Test.make ~name:"bigint decimal roundtrip" ~count:500 big_gen (fun v ->
      B.equal v (B.of_string (B.to_string v)))

let prop_mul_commutative =
  QCheck.Test.make ~name:"bigint mul commutes" ~count:300 (QCheck.pair big_gen big_gen)
    (fun (a, b) -> B.equal (B.mul a b) (B.mul b a))

let prop_distributive =
  QCheck.Test.make ~name:"bigint distributivity" ~count:300
    (QCheck.triple big_gen big_gen big_gen)
    (fun (a, b, c) -> B.equal (B.mul a (B.add b c)) (B.add (B.mul a b) (B.mul a c)))

let prop_gcd_divides =
  QCheck.Test.make ~name:"bigint gcd divides both" ~count:300 (QCheck.pair big_gen big_gen)
    (fun (a, b) ->
      let g = B.gcd a b in
      if B.is_zero g then B.is_zero a && B.is_zero b
      else B.is_zero (B.rem a g) && B.is_zero (B.rem b g))

(* ------------------------------------------------------------------ *)
(* Differential vs the reference implementation *)

module RB = Spp_num.Reference.Bigint
module RR = Spp_num.Reference.Rat

let ref_of b = RB.of_string (B.to_string b)

let prop_ref_bigint_ops =
  QCheck.Test.make ~name:"bigint ops match reference implementation" ~count:300
    (QCheck.pair big_gen big_gen) (fun (a, b) ->
      let ra = ref_of a and rb = ref_of b in
      B.to_string (B.add a b) = RB.to_string (RB.add ra rb)
      && B.to_string (B.sub a b) = RB.to_string (RB.sub ra rb)
      && B.to_string (B.mul a b) = RB.to_string (RB.mul ra rb)
      && B.to_string (B.gcd a b) = RB.to_string (RB.gcd ra rb)
      && B.compare a b = RB.compare ra rb
      && (B.is_zero b
          ||
          let q, r = B.divmod a b and rq, rr = RB.divmod ra rb in
          B.to_string q = RB.to_string rq && B.to_string r = RB.to_string rr))

let prop_ref_rat_ops =
  QCheck.Test.make ~name:"rat ops match reference implementation" ~count:300
    (QCheck.quad big_gen big_gen big_gen big_gen) (fun (a, b, c, d) ->
      QCheck.assume (not (B.is_zero b || B.is_zero d));
      let x = Q.make a b and y = Q.make c d in
      let rx = RR.make (ref_of a) (ref_of b) and ry = RR.make (ref_of c) (ref_of d) in
      Q.to_string (Q.add x y) = RR.to_string (RR.add rx ry)
      && Q.to_string (Q.sub x y) = RR.to_string (RR.sub rx ry)
      && Q.to_string (Q.mul x y) = RR.to_string (RR.mul rx ry)
      && Q.compare x y = RR.compare rx ry
      && (Q.is_zero y || Q.to_string (Q.div x y) = RR.to_string (RR.div rx ry)))

(* ------------------------------------------------------------------ *)
(* Rational unit tests *)

let check_q msg expected actual = Alcotest.(check string) msg expected (Q.to_string actual)

let test_rat_normalisation () =
  check_q "reduce" "2/3" (Q.of_ints 4 6);
  check_q "sign to num" "-2/3" (Q.of_ints 2 (-3));
  check_q "double neg" "2/3" (Q.of_ints (-2) (-3));
  check_q "zero canonical" "0" (Q.of_ints 0 7);
  check_q "integer hides den" "5" (Q.of_ints 10 2)

let test_rat_den_invariant () =
  (* [make] is the single normalisation point: whatever route a rational
     takes (small fast path, big path, inv, mul cross-reduction, pow),
     den > 0 and gcd (num, den) = 1 must hold on the result. *)
  let check_normal msg v =
    Alcotest.(check bool) (msg ^ ": den > 0") true (B.sign (Q.den v) > 0);
    Alcotest.(check bool) (msg ^ ": coprime") true
      (Q.is_zero v || B.equal (B.gcd (Q.num v) (Q.den v)) B.one);
    Alcotest.(check bool) (msg ^ ": zero canonical") true
      (not (Q.is_zero v) || B.equal (Q.den v) B.one)
  in
  let big = B.mul (bi max_int) (bi 3) in
  check_normal "small neg den" (Q.of_ints 4 (-6));
  check_normal "big neg den" (Q.make big (B.neg (B.mul big (bi 2))));
  check_normal "inv of negative" (Q.inv (Q.of_ints (-3) 7));
  check_normal "mul of negatives" (Q.mul (Q.of_ints (-2) 3) (Q.of_ints 3 (-4)));
  check_normal "div result" (Q.div (Q.of_ints 5 6) (Q.of_ints (-10) 9));
  check_normal "neg pow" (Q.pow (Q.of_ints (-2) 3) (-2));
  check_normal "sub to zero" (Q.sub (Q.of_ints 1 3) (Q.of_ints 2 6));
  check_normal "big add" (Q.add (Q.of_bigint big) (Q.make B.one big));
  check_q "inv moves sign" "-7/3" (Q.inv (Q.of_ints (-3) 7));
  check_q "big neg den value" "-1/2" (Q.make big (B.neg (B.mul big (bi 2))))

let prop_rat_normalised =
  QCheck.Test.make ~name:"rat make always normalises (den > 0, coprime)" ~count:500
    (QCheck.pair big_gen big_gen) (fun (a, b) ->
      QCheck.assume (not (B.is_zero b));
      let v = Q.make a b in
      B.sign (Q.den v) > 0
      && (Q.is_zero v || B.equal (B.gcd (Q.num v) (Q.den v)) B.one)
      && (not (Q.is_zero v) || B.equal (Q.den v) B.one))

let test_rat_arith () =
  check_q "add" "5/6" (Q.add (Q.of_ints 1 2) (Q.of_ints 1 3));
  check_q "sub" "1/6" (Q.sub (Q.of_ints 1 2) (Q.of_ints 1 3));
  check_q "mul" "1/6" (Q.mul (Q.of_ints 1 2) (Q.of_ints 1 3));
  check_q "div" "3/2" (Q.div (Q.of_ints 1 2) (Q.of_ints 1 3));
  Alcotest.check_raises "div zero" Division_by_zero (fun () -> ignore (Q.div Q.one Q.zero));
  Alcotest.check_raises "inv zero" Division_by_zero (fun () -> ignore (Q.inv Q.zero))

let test_rat_floor_ceil () =
  let fc v = (B.to_int_exn (Q.floor v), B.to_int_exn (Q.ceil v)) in
  Alcotest.(check (pair int int)) "7/2" (3, 4) (fc (Q.of_ints 7 2));
  Alcotest.(check (pair int int)) "-7/2" (-4, -3) (fc (Q.of_ints (-7) 2));
  Alcotest.(check (pair int int)) "exact" (5, 5) (fc (Q.of_int 5));
  Alcotest.(check (pair int int)) "-exact" (-5, -5) (fc (Q.of_int (-5)))

let test_rat_compare () =
  Alcotest.(check int) "1/3 < 1/2" (-1) (Q.compare (Q.of_ints 1 3) (Q.of_ints 1 2));
  Alcotest.(check int) "equal cross-rep" 0 (Q.compare (Q.of_ints 2 4) (Q.of_ints 1 2));
  Alcotest.(check int) "negatives" 1 (Q.compare (Q.of_ints (-1) 3) (Q.of_ints (-1) 2))

let test_rat_of_string () =
  check_q "int" "42" (Q.of_string "42");
  check_q "frac" "-3/4" (Q.of_string "-3/4");
  check_q "decimal" "13/4" (Q.of_string "3.25");
  check_q "neg decimal" "-1/8" (Q.of_string "-0.125");
  check_q "decimal trailing" "1/2" (Q.of_string "0.500")

let test_rat_pow_min_max () =
  check_q "pow pos" "8/27" (Q.pow (Q.of_ints 2 3) 3);
  check_q "pow zero" "1" (Q.pow (Q.of_ints 5 7) 0);
  check_q "pow neg" "9/4" (Q.pow (Q.of_ints 2 3) (-2));
  Alcotest.check_raises "pow zero neg" Division_by_zero (fun () -> ignore (Q.pow Q.zero (-1)));
  check_q "min" "1/3" (Q.min (Q.of_ints 1 3) (Q.of_ints 1 2));
  check_q "max" "1/2" (Q.max (Q.of_ints 1 3) (Q.of_ints 1 2));
  check_q "abs" "3/4" (Q.abs (Q.of_ints (-3) 4));
  let open Q.Infix in
  Alcotest.(check bool) "infix" true
    (Q.of_ints 1 2 + Q.of_ints 1 3 = Q.of_ints 5 6 && Q.of_ints 1 3 < Q.of_ints 1 2)

let test_rat_of_float_approx () =
  check_q "1/3" "1/3" (Q.of_float_approx (1.0 /. 3.0) ~max_den:100);
  check_q "0.5" "1/2" (Q.of_float_approx 0.5 ~max_den:10);
  check_q "neg" "-1/4" (Q.of_float_approx (-0.25) ~max_den:10);
  check_q "integer" "7" (Q.of_float_approx 7.0 ~max_den:10)

(* ------------------------------------------------------------------ *)
(* Rational property tests: field laws *)

let rat_gen =
  QCheck.make ~print:Q.to_string
    QCheck.Gen.(
      let* n = int_range (-10_000) 10_000 in
      let* d = int_range 1 10_000 in
      return (Q.of_ints n d))

let prop_rat_add_assoc =
  QCheck.Test.make ~name:"rat add associative" ~count:300 (QCheck.triple rat_gen rat_gen rat_gen)
    (fun (a, b, c) -> Q.equal (Q.add a (Q.add b c)) (Q.add (Q.add a b) c))

let prop_rat_mul_inverse =
  QCheck.Test.make ~name:"rat mul inverse" ~count:300 rat_gen (fun a ->
      QCheck.assume (not (Q.is_zero a));
      Q.equal Q.one (Q.mul a (Q.inv a)))

let prop_rat_total_order =
  QCheck.Test.make ~name:"rat order consistent with floats" ~count:300 (QCheck.pair rat_gen rat_gen)
    (fun (a, b) ->
      let c = Q.compare a b in
      let fa = Q.to_float a and fb = Q.to_float b in
      if Float.abs (fa -. fb) > 1e-6 then (c < 0) = (fa < fb) else true)

let prop_rat_floor_bound =
  QCheck.Test.make ~name:"rat floor within 1" ~count:300 rat_gen (fun a ->
      let f = Q.of_bigint (Q.floor a) in
      Q.compare f a <= 0 && Q.compare a (Q.add f Q.one) < 0)

(* ------------------------------------------------------------------ *)
(* Scale: the checked native grid *)

let test_scale_bounds () =
  let module S = Spp_num.Scale in
  let off f = match f () with _ -> false | exception S.Off_grid -> true in
  let two30 = 1 lsl 30 in
  Alcotest.(check int) "2^30 * 2^30 is the limit" S.limit (S.mul two30 two30);
  Alcotest.(check int) "negative at the limit" (-S.limit) (S.mul (-two30) two30);
  Alcotest.(check bool) "(2^30 + 1) * 2^30 is off" true (off (fun () -> S.mul (two30 + 1) two30));
  Alcotest.(check bool) "min_int is off" true (off (fun () -> S.mul min_int 1));
  Alcotest.(check int) "add up to the limit" S.limit (S.add (S.limit - 1) 1);
  Alcotest.(check bool) "add past the limit is off" true (off (fun () -> S.add S.limit 1));
  Alcotest.(check int) "lcm of 4, 6, 3" 12 (S.scale [ Q.of_ints 1 4; Q.of_ints 5 6; Q.of_ints 2 3 ]);
  Alcotest.(check int) "empty scale" 1 (S.scale []);
  Alcotest.(check int) "5/6 on twelfths" 10 (S.to_grid 12 (Q.of_ints 5 6));
  Alcotest.(check string) "back from the grid" "5/6" (Q.to_string (S.of_grid 12 10));
  (* Two primes near 2^32: their lcm passes a native int. *)
  Alcotest.(check bool) "scale past a native int" true
    (S.fits (fun () -> S.scale [ Q.of_ints 1 4_294_967_311; Q.of_ints 1 4_294_967_357 ]) = None);
  Alcotest.(check bool) "a grid value past the limit" true
    (S.fits (fun () -> S.to_grid 2 (Q.of_ints (S.limit / 2 * 3) 2)) = None)

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "spp_num"
    [
      ( "bigint-unit",
        [
          Alcotest.test_case "of_int small" `Quick test_of_int_small;
          Alcotest.test_case "min_int/max_int" `Quick test_min_int;
          Alcotest.test_case "to_int overflow" `Quick test_to_int_overflow;
          Alcotest.test_case "add/sub" `Quick test_add_sub;
          Alcotest.test_case "mul" `Quick test_mul;
          Alcotest.test_case "divmod basic" `Quick test_divmod_basic;
          Alcotest.test_case "divmod multi-limb" `Quick test_divmod_long;
          Alcotest.test_case "division by zero" `Quick test_division_by_zero;
          Alcotest.test_case "gcd" `Quick test_gcd;
          Alcotest.test_case "string roundtrip" `Quick test_string_roundtrip;
          Alcotest.test_case "factorial 100" `Quick test_factorial_100;
          Alcotest.test_case "karatsuba crossover" `Quick test_karatsuba_crossover;
          Alcotest.test_case "compare" `Quick test_compare;
          Alcotest.test_case "to_float" `Quick test_to_float;
          Alcotest.test_case "misc queries" `Quick test_misc_queries;
          Alcotest.test_case "small/big boundary" `Quick test_small_big_boundary;
        ] );
      ( "bigint-props",
        qsuite
          [
            prop_add_matches_native;
            prop_mul_matches_native;
            prop_divmod_matches_native;
            prop_divmod_reconstruct;
            prop_string_roundtrip;
            prop_mul_commutative;
            prop_distributive;
            prop_gcd_divides;
            prop_karatsuba_matches_division;
          ] );
      ("reference-diff", qsuite [ prop_ref_bigint_ops; prop_ref_rat_ops ]);
      ( "rat-unit",
        [
          Alcotest.test_case "normalisation" `Quick test_rat_normalisation;
          Alcotest.test_case "den > 0 invariant" `Quick test_rat_den_invariant;
          Alcotest.test_case "arithmetic" `Quick test_rat_arith;
          Alcotest.test_case "floor/ceil" `Quick test_rat_floor_ceil;
          Alcotest.test_case "compare" `Quick test_rat_compare;
          Alcotest.test_case "of_string" `Quick test_rat_of_string;
          Alcotest.test_case "pow/min/max/abs" `Quick test_rat_pow_min_max;
          Alcotest.test_case "of_float_approx" `Quick test_rat_of_float_approx;
        ] );
      ("scale", [ Alcotest.test_case "checked grid arithmetic" `Quick test_scale_bounds ]);
      ( "rat-props",
        qsuite
          [ prop_rat_add_assoc; prop_rat_mul_inverse; prop_rat_total_order; prop_rat_floor_bound;
            prop_rat_normalised ] );
    ]
