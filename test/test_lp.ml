(* Tests for Spp_lp: model construction, exact simplex on hand-solved LPs,
   degenerate/infeasible/unbounded cases, basicness of the optimum, and
   exact-vs-float agreement on random feasible LPs. *)

module Q = Spp_num.Rat
module Model = Spp_lp.Model
module Simplex = Spp_lp.Simplex

let q = Q.of_ints
let qi = Q.of_int

let check_q msg expected actual =
  Alcotest.(check string) msg (Q.to_string expected) (Q.to_string actual)

let vec a = String.concat " " (Array.to_list (Array.map Q.to_string a))

(* The pivots a call reports to the profile, next to its result. *)
let with_pivots f =
  Spp_obs.Profile.reset ();
  let out = f () in
  (out, (Spp_obs.Profile.read ()).Spp_obs.Profile.pivots)

let optimum objective solution duals =
  Printf.sprintf "objective %s, solution [%s], duals [%s]" (Q.to_string objective) (vec solution)
    (vec duals)

let describe (r, pivots) =
  match r with
  | Simplex.Optimal { objective; solution; duals } ->
    Printf.sprintf "optimal, %d pivots, %s" pivots (optimum objective solution duals)
  | Simplex.Infeasible -> Printf.sprintf "infeasible, %d pivots" pivots
  | Simplex.Unbounded -> Printf.sprintf "unbounded, %d pivots" pivots

(* [Exact.solve], checked against the dense [Reference]: the same verdict,
   objective, solution, duals and pivot count. *)
let solve_checked m =
  let fast = with_pivots (fun () -> Simplex.Exact.solve m) in
  let slow = with_pivots (fun () -> Simplex.Reference.solve m) in
  Alcotest.(check string) "same as Reference" (describe slow) (describe fast);
  fst fast

let solve_exact m =
  match solve_checked m with
  | Simplex.Optimal { objective; solution; _ } -> (objective, solution)
  | Simplex.Infeasible -> Alcotest.fail "unexpected infeasible"
  | Simplex.Unbounded -> Alcotest.fail "unexpected unbounded"

(* ------------------------------------------------------------------ *)
(* Model *)

let test_model_building () =
  let m = Model.create () in
  let x = Model.add_var m ~name:"x" in
  let y = Model.add_var m ~name:"y" in
  Alcotest.(check int) "two vars" 2 (Model.num_vars m);
  Alcotest.(check string) "name x" "x" (Model.var_name m x);
  Alcotest.(check string) "name y" "y" (Model.var_name m y);
  Model.add_constraint m ~name:"c1" [ (x, qi 1); (y, qi 2) ] Model.Le (qi 10);
  Alcotest.(check int) "one constraint" 1 (Model.num_constraints m);
  Alcotest.check_raises "undeclared var"
    (Invalid_argument "Model: undeclared variable in terms") (fun () ->
      Model.add_constraint m ~name:"bad" [ (5, qi 1) ] Model.Le Q.one)

let test_model_feasibility_check () =
  let m = Model.create () in
  let x = Model.add_var m ~name:"x" in
  let y = Model.add_var m ~name:"y" in
  Model.add_constraint m ~name:"c1" [ (x, qi 1); (y, qi 1) ] Model.Le (qi 4);
  Model.add_constraint m ~name:"c2" [ (x, qi 1) ] Model.Ge (qi 1);
  Alcotest.(check bool) "feasible point" true (Model.is_feasible m [| qi 2; qi 1 |]);
  Alcotest.(check bool) "violates c1" false (Model.is_feasible m [| qi 3; qi 2 |]);
  Alcotest.(check bool) "violates c2" false (Model.is_feasible m [| qi 0; qi 1 |]);
  Alcotest.(check bool) "negative var" false (Model.is_feasible m [| qi 2; Q.minus_one |])

(* ------------------------------------------------------------------ *)
(* Exact simplex on hand-checked LPs *)

(* min -x - y  s.t.  x + 2y <= 4,  3x + y <= 6  =>  optimum at (8/5, 6/5),
   objective -14/5. *)
let test_simplex_textbook () =
  let m = Model.create () in
  let x = Model.add_var m ~name:"x" in
  let y = Model.add_var m ~name:"y" in
  Model.set_objective m [ (x, qi (-1)); (y, qi (-1)) ];
  Model.add_constraint m ~name:"c1" [ (x, qi 1); (y, qi 2) ] Model.Le (qi 4);
  Model.add_constraint m ~name:"c2" [ (x, qi 3); (y, qi 1) ] Model.Le (qi 6);
  let obj, sol = solve_exact m in
  check_q "objective" (q (-14) 5) obj;
  check_q "x" (q 8 5) sol.(x);
  check_q "y" (q 6 5) sol.(y)

(* Requires phase 1: min x + y s.t. x + y >= 3, x <= 2 => opt 3 (e.g. x=2,y=1). *)
let test_simplex_phase1 () =
  let m = Model.create () in
  let x = Model.add_var m ~name:"x" in
  let y = Model.add_var m ~name:"y" in
  Model.set_objective m [ (x, qi 1); (y, qi 1) ];
  Model.add_constraint m ~name:"cover" [ (x, qi 1); (y, qi 1) ] Model.Ge (qi 3);
  Model.add_constraint m ~name:"cap" [ (x, qi 1) ] Model.Le (qi 2);
  let obj, sol = solve_exact m in
  check_q "objective" (qi 3) obj;
  Alcotest.(check bool) "solution feasible" true (Model.is_feasible m sol)

let test_simplex_equality () =
  (* min 2x + 3y s.t. x + y = 5, x - y = 1 => unique point (3,2), obj 12. *)
  let m = Model.create () in
  let x = Model.add_var m ~name:"x" in
  let y = Model.add_var m ~name:"y" in
  Model.set_objective m [ (x, qi 2); (y, qi 3) ];
  Model.add_constraint m ~name:"e1" [ (x, qi 1); (y, qi 1) ] Model.Eq (qi 5);
  Model.add_constraint m ~name:"e2" [ (x, qi 1); (y, qi (-1)) ] Model.Eq (qi 1);
  let obj, sol = solve_exact m in
  check_q "objective" (qi 12) obj;
  check_q "x" (qi 3) sol.(x);
  check_q "y" (qi 2) sol.(y)

let test_simplex_infeasible () =
  let m = Model.create () in
  let x = Model.add_var m ~name:"x" in
  Model.set_objective m [ (x, qi 1) ];
  Model.add_constraint m ~name:"hi" [ (x, qi 1) ] Model.Ge (qi 5);
  Model.add_constraint m ~name:"lo" [ (x, qi 1) ] Model.Le (qi 2);
  (match solve_checked m with
   | Simplex.Infeasible -> ()
   | _ -> Alcotest.fail "expected infeasible")

let test_simplex_unbounded () =
  let m = Model.create () in
  let x = Model.add_var m ~name:"x" in
  let y = Model.add_var m ~name:"y" in
  Model.set_objective m [ (x, qi (-1)) ];
  Model.add_constraint m ~name:"c" [ (x, qi 1); (y, qi (-1)) ] Model.Le (qi 1);
  (match solve_checked m with
   | Simplex.Unbounded -> ()
   | _ -> Alcotest.fail "expected unbounded")

let test_simplex_negative_rhs () =
  (* Constraint with negative rhs exercises row normalisation:
     -x <= -2  <=>  x >= 2. *)
  let m = Model.create () in
  let x = Model.add_var m ~name:"x" in
  Model.set_objective m [ (x, qi 1) ];
  Model.add_constraint m ~name:"c" [ (x, qi (-1)) ] Model.Le (qi (-2)) ;
  let obj, sol = solve_exact m in
  check_q "objective" (qi 2) obj;
  check_q "x" (qi 2) sol.(x)

let test_simplex_degenerate () =
  (* Degenerate vertex at origin with redundant constraints; Bland's rule
     must still terminate. min -x s.t. x <= 0 (twice), x + y <= 2. *)
  let m = Model.create () in
  let x = Model.add_var m ~name:"x" in
  let y = Model.add_var m ~name:"y" in
  Model.set_objective m [ (x, qi (-1)); (y, qi 0) ];
  Model.add_constraint m ~name:"z1" [ (x, qi 1) ] Model.Le (qi 0);
  Model.add_constraint m ~name:"z2" [ (x, qi 2) ] Model.Le (qi 0);
  Model.add_constraint m ~name:"c" [ (x, qi 1); (y, qi 1) ] Model.Le (qi 2);
  let obj, _sol = solve_exact m in
  check_q "objective" (qi 0) obj

let test_simplex_redundant_equalities () =
  (* Linearly dependent equalities: x + y = 2 duplicated. Phase 1 must drop
     the redundant row rather than loop. *)
  let m = Model.create () in
  let x = Model.add_var m ~name:"x" in
  let y = Model.add_var m ~name:"y" in
  Model.set_objective m [ (x, qi 1); (y, qi 2) ];
  Model.add_constraint m ~name:"e1" [ (x, qi 1); (y, qi 1) ] Model.Eq (qi 2);
  Model.add_constraint m ~name:"e2" [ (x, qi 2); (y, qi 2) ] Model.Eq (qi 4);
  let obj, sol = solve_exact m in
  check_q "objective" (qi 2) obj;
  check_q "x" (qi 2) sol.(x);
  check_q "y" (qi 0) sol.(y)

let test_simplex_fractional_data () =
  (* Fractional coefficients: min x s.t. (2/3)x >= 5/7 => x = 15/14. *)
  let m = Model.create () in
  let x = Model.add_var m ~name:"x" in
  Model.set_objective m [ (x, qi 1) ];
  Model.add_constraint m ~name:"c" [ (x, q 2 3) ] Model.Ge (q 5 7);
  let obj, _ = solve_exact m in
  check_q "objective" (q 15 14) obj

let test_simplex_beale_cycling () =
  (* Beale's classic example that cycles under Dantzig's rule; Bland's rule
     must terminate at optimum -1/20 (x1=1/25... known optimum z = -1/20). *)
  let m = Model.create () in
  let x1 = Model.add_var m ~name:"x1" in
  let x2 = Model.add_var m ~name:"x2" in
  let x3 = Model.add_var m ~name:"x3" in
  let x4 = Model.add_var m ~name:"x4" in
  Model.set_objective m [ (x1, q (-3) 4); (x2, qi 150); (x3, q (-1) 50); (x4, qi 6) ];
  Model.add_constraint m ~name:"r1"
    [ (x1, q 1 4); (x2, qi (-60)); (x3, q (-1) 25); (x4, qi 9) ] Model.Le (qi 0);
  Model.add_constraint m ~name:"r2"
    [ (x1, q 1 2); (x2, qi (-90)); (x3, q (-1) 50); (x4, qi 3) ] Model.Le (qi 0);
  Model.add_constraint m ~name:"r3" [ (x3, qi 1) ] Model.Le (qi 1);
  let obj, sol = solve_exact m in
  check_q "Beale optimum" (q (-1) 20) obj;
  Alcotest.(check bool) "feasible" true (Model.is_feasible m sol)

let test_simplex_zero_objective () =
  (* Pure feasibility problem. *)
  let m = Model.create () in
  let x = Model.add_var m ~name:"x" in
  Model.add_constraint m ~name:"c" [ (x, qi 1) ] Model.Ge (qi 3);
  let obj, sol = solve_exact m in
  check_q "objective" (qi 0) obj;
  Alcotest.(check bool) "feasible" true (Model.is_feasible m sol)

let test_simplex_duals_textbook () =
  (* min -x - y s.t. x + 2y <= 4, 3x + y <= 6: both constraints tight at the
     optimum; duals solve y1 + 3y2 = -1, 2y1 + y2 = -1 => y1 = -2/5,
     y2 = -1/5; strong duality: y·b = -8/5 - 6/5 = -14/5 = objective. *)
  let m = Model.create () in
  let x = Model.add_var m ~name:"x" in
  let y = Model.add_var m ~name:"y" in
  Model.set_objective m [ (x, qi (-1)); (y, qi (-1)) ];
  Model.add_constraint m ~name:"c1" [ (x, qi 1); (y, qi 2) ] Model.Le (qi 4);
  Model.add_constraint m ~name:"c2" [ (x, qi 3); (y, qi 1) ] Model.Le (qi 6);
  (match Simplex.Exact.solve m with
   | Simplex.Optimal { objective; duals; _ } ->
     check_q "dual c1" (q (-2) 5) duals.(0);
     check_q "dual c2" (q (-1) 5) duals.(1);
     let yb = Q.add (Q.mul duals.(0) (qi 4)) (Q.mul duals.(1) (qi 6)) in
     check_q "strong duality" (Q.to_string objective |> Q.of_string) yb
   | _ -> Alcotest.fail "expected optimal")

let prop_strong_duality =
  (* On random bounded LPs: objective = Σ y_i b_i (strong duality over the
     exact field) — a complete certificate that the dual extraction is
     right. *)
  QCheck.Test.make ~name:"strong duality: objective = y·b" ~count:200
    (QCheck.make ~print:(fun _ -> "lp")
       QCheck.Gen.(
         let* n = int_range 1 4 in
         let* nrows = int_range 1 4 in
         let* rows = list_repeat nrows (pair (list_repeat n (int_range 0 5)) (int_range 1 20)) in
         let* costs = list_repeat n (int_range (-5) 5) in
         return (n, rows, costs)))
    (fun (n, rows, costs) ->
      let m = Model.create () in
      let vars = List.init n (fun i -> Model.add_var m ~name:(Printf.sprintf "x%d" i)) in
      Model.set_objective m (List.map2 (fun v c -> (v, qi c)) vars costs);
      List.iteri
        (fun i (coeffs, rhs) ->
          Model.add_constraint m ~name:(Printf.sprintf "c%d" i)
            (List.map2 (fun v a -> (v, qi a)) vars coeffs)
            Model.Le (qi rhs))
        rows;
      List.iter (fun v -> Model.add_constraint m ~name:"box" [ (v, qi 1) ] Model.Le (qi 50)) vars;
      match Simplex.Exact.solve m with
      | Simplex.Optimal { objective; duals; _ } ->
        let rhs_list = List.map (fun (_, rhs) -> qi rhs) rows @ List.map (fun _ -> qi 50) vars in
        let yb =
          List.fold_left2 (fun acc y b -> Q.add acc (Q.mul y b)) Q.zero
            (Array.to_list duals) rhs_list
        in
        Q.equal objective yb
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Restricted masters against the dense Reference *)

(* min x + 2y s.t. x + y = 2, 2x + 2y = 4: phase 1 drops the second row,
   so neither master may take a column. *)
let test_restricted_dropped_row () =
  let m = Model.create () in
  let x = Model.add_var m ~name:"x" in
  let y = Model.add_var m ~name:"y" in
  Model.set_objective m [ (x, qi 1); (y, qi 2) ];
  Model.add_constraint m ~name:"e1" [ (x, qi 1); (y, qi 1) ] Model.Eq (qi 2);
  Model.add_constraint m ~name:"e2" [ (x, qi 2); (y, qi 2) ] Model.Eq (qi 4);
  let append (module R : Simplex.RESTRICTED) =
    match R.create m with
    | `Optimal rm -> (
      match R.add_column rm ~obj:Q.one ~entries:[ (0, qi 1); (1, qi 3) ] with
      | `Added -> "added"
      | `Needs_rebuild -> "needs rebuild")
    | `Infeasible | `Unbounded -> "no master"
  in
  Alcotest.(check string) "exact" "needs rebuild" (append (module Simplex.Exact.Restricted));
  Alcotest.(check string) "reference" "needs rebuild" (append (module Simplex.Reference.Restricted))

(* A covering LP shaped like a configuration LP: min sum c_j x_j s.t.
   sum_j a_ij x_j >= b_i over 4 rows. Each column is (cost, entries). *)
let covering_rows = 4

let covering_model columns =
  let m = Model.create () in
  let vars = List.mapi (fun j _ -> Model.add_var m ~name:(Printf.sprintf "x%d" j)) columns in
  Model.set_objective m (List.map2 (fun v (c, _) -> (v, c)) vars columns);
  for i = 0 to covering_rows - 1 do
    Model.add_constraint m ~name:(Printf.sprintf "r%d" i)
      (List.concat_map
         (fun (v, (_, entries)) ->
           match List.assoc_opt i entries with Some a -> [ (v, a) ] | None -> [])
         (List.combine vars columns))
      Model.Ge (qi (3 + i))
  done;
  m

(* The master's optimum after create and after each append + reoptimize,
   and its final optimum. *)
let master_steps ?(model = covering_model) ?(after = ignore) (module R : Simplex.RESTRICTED) start
    appended =
  let state rm = optimum (R.objective rm) (R.solution rm) (R.duals rm) in
  match with_pivots (fun () -> R.create (model start)) with
  | (`Infeasible | `Unbounded), _ -> Alcotest.fail "covering master has no optimum"
  | `Optimal rm, p ->
    let created = Printf.sprintf "create: %d pivots, %s" p (state rm) in
    after 0;
    (* An append's pivots include any its [add_column] reports. *)
    let append obj entries =
      match R.add_column rm ~obj ~entries with
      | `Needs_rebuild -> Alcotest.fail "covering master dropped a row"
      | `Added -> R.reoptimize rm
    in
    let steps =
      List.mapi
        (fun k (obj, entries) ->
          match with_pivots (fun () -> append obj entries) with
          | `Unbounded, _ -> Alcotest.fail "covering master unbounded"
          | `Optimal, p ->
            after (k + 1);
            Printf.sprintf "append %d: %d pivots, %s" (k + 1) p (state rm))
        appended
    in
    (created :: steps, state rm)

(* 3 starting columns give a tableau of 3 + 4 surplus + 4 artificial = 11
   columns, capacity 12; 70 appends grow it to 81 columns, through
   capacities 24, 48 and 96. *)
let test_restricted_many_appends () =
  let rng = Spp_util.Prng.create 7 in
  let entry () =
    let a = Spp_util.Prng.int rng 4 in
    if a = 0 then None else Some (q a (Spp_util.Prng.int_in rng 1 2))
  in
  let column () =
    ( q (Spp_util.Prng.int_in rng 2 40) (Spp_util.Prng.int_in rng 1 7),
      List.filter_map
        (fun i -> Option.map (fun a -> (i, a)) (entry ()))
        (List.init covering_rows Fun.id) )
  in
  let start =
    [ (qi 20, List.init covering_rows (fun i -> (i, qi 1))); (qi 9, [ (0, qi 2); (2, qi 1) ]);
      (qi 9, [ (1, qi 1); (3, qi 2) ]) ]
  in
  let appended = List.init 70 (fun _ -> column ()) in
  let fast, final = master_steps (module Simplex.Exact.Restricted) start appended in
  let slow, _ = master_steps (module Simplex.Reference.Restricted) start appended in
  Alcotest.(check (list string)) "every step as Reference" slow fast;
  (* The warm master ends where a cold solve of the whole model does. *)
  match Simplex.Exact.solve (covering_model (start @ appended)) with
  | Simplex.Optimal { objective; solution; duals } ->
    Alcotest.(check string) "cold solve of the full model" (optimum objective solution duals) final
  | Simplex.Infeasible | Simplex.Unbounded -> Alcotest.fail "full covering model has no optimum"

(* ------------------------------------------------------------------ *)
(* The word path's fallback to boxed rationals *)

(* [f ()], checking that it moved [Exact.fallbacks] by exactly one. *)
let falls_back_once f =
  let before = Simplex.Exact.fallbacks () in
  let out = f () in
  Alcotest.(check int) "one fallback" 1 (Simplex.Exact.fallbacks () - before);
  out

let fits_word c =
  match Spp_lp.Field.Word.of_rat c with _ -> true | exception Spp_lp.Field.Word.Overflow -> false

(* The Exact master's steps, checked against Reference's, and the
   fallbacks counted after each step (0 = create). *)
let steps_as_reference ?model start appended =
  let base = Simplex.Exact.fallbacks () in
  let seen = ref [] in
  let after k = seen := (k, Simplex.Exact.fallbacks () - base) :: !seen in
  let fast, _ = master_steps ?model ~after (module Simplex.Exact.Restricted) start appended in
  let slow, _ = master_steps ?model (module Simplex.Reference.Restricted) start appended in
  Alcotest.(check (list string)) "every step as Reference" slow fast;
  List.rev !seen

let test_fallback_at_load () =
  (* 2^30 is one past the word range: the model cannot even load. *)
  let m = Model.create () in
  let x = Model.add_var m ~name:"x" in
  let y = Model.add_var m ~name:"y" in
  Model.set_objective m [ (x, qi (-2)); (y, qi (-1)) ];
  Model.add_constraint m ~name:"wide"
    [ (x, qi (1 lsl 30)); (y, qi (1 lsl 30)) ]
    Model.Le (qi (1 lsl 31));
  Model.add_constraint m ~name:"box" [ (x, qi 1) ] Model.Le (qi 3);
  let objective, solution = falls_back_once (fun () -> solve_exact m) in
  check_q "objective" (qi (-4)) objective;
  Alcotest.(check string) "solution" "2 0" (vec solution)

(* Every entry fits a word, but phase 1 eliminates x or y between rows
   u and v, which leaves 1 - 1/65537^2: its denominator is past 2^30. *)
let overflowing_covering start =
  let m = covering_model start in
  let x = Model.add_var m ~name:"x" and y = Model.add_var m ~name:"y" in
  Model.add_constraint m ~name:"u" [ (x, q 1 65537); (y, qi 1) ] Model.Ge (qi 1);
  Model.add_constraint m ~name:"v" [ (x, qi 1); (y, q 1 65537) ] Model.Ge (qi 1);
  m

let test_fallback_in_create () =
  let start = [ (qi 20, List.init covering_rows (fun i -> (i, qi 1))) ] in
  List.iter
    (fun (_, terms, _, rhs) ->
      List.iter (fun (_, c) -> Alcotest.(check bool) "entry fits a word" true (fits_word c)) terms;
      Alcotest.(check bool) "rhs fits a word" true (fits_word rhs))
    (Model.constraints (overflowing_covering start));
  let appended = [ (qi 7, [ (0, qi 2); (1, qi 1) ]); (qi 5, [ (2, qi 1); (3, qi 3) ]) ] in
  Alcotest.(check (list (pair int int)))
    "one fallback, in create" [ (0, 1); (1, 1); (2, 1) ]
    (steps_as_reference ~model:overflowing_covering start appended)

let test_fallback_on_kth_append () =
  (* The fifth column costs 1/1000003 and has 1/999983 in row 0: its
     reduced cost has a denominator near 2^40. The boxed master retraces
     create and appends 1-4 with their reoptimizes, reports none of those
     pivots again, and takes appends 5-8. *)
  let start =
    [ (qi 20, List.init covering_rows (fun i -> (i, qi 1))); (qi 9, [ (0, qi 2); (2, qi 1) ]);
      (qi 9, [ (1, qi 1); (3, qi 2) ]) ]
  in
  let column k = (qi (3 + k), [ (k mod covering_rows, qi 2); ((k + 1) mod covering_rows, qi 1) ]) in
  let appended =
    List.init 4 column
    @ [ (q 1 1000003, [ (0, q 1 999983); (1, qi 1) ]) ]
    @ List.init 3 (fun k -> column (k + 4))
  in
  Alcotest.(check (list (pair int int)))
    "fallbacks after each step: none before append 5, one from it on"
    (List.init 9 (fun k -> (k, if k < 5 then 0 else 1)))
    (steps_as_reference start appended)

(* ------------------------------------------------------------------ *)
(* Structural properties on random LPs *)

(* Random LPs constructed to be feasible by design: constraints are
   Σ a_ij x_j <= b_i with a, b >= 0 (x = 0 feasible), objective pushes some
   variables up via negative costs, bounded by the box rows we add. *)
let random_bounded_lp_gen =
  QCheck.make
    ~print:(fun (n, rows, costs) ->
      Printf.sprintf "n=%d rows=%d costs=%s" n (List.length rows)
        (String.concat "," (List.map string_of_int costs)))
    QCheck.Gen.(
      let* n = int_range 1 5 in
      let* nrows = int_range 1 5 in
      let* rows =
        list_repeat nrows
          (pair (list_repeat n (int_range 0 5)) (int_range 1 20))
      in
      let* costs = list_repeat n (int_range (-5) 5) in
      return (n, rows, costs))

let build_lp (n, rows, costs) =
  let m = Model.create () in
  let vars = List.init n (fun i -> Model.add_var m ~name:(Printf.sprintf "x%d" i)) in
  Model.set_objective m (List.map2 (fun v c -> (v, qi c)) vars costs);
  List.iteri
    (fun i (coeffs, rhs) ->
      Model.add_constraint m ~name:(Printf.sprintf "c%d" i)
        (List.map2 (fun v a -> (v, qi a)) vars coeffs)
        Model.Le (qi rhs))
    rows;
  (* Box: x_j <= 50 keeps every instance bounded. *)
  List.iter (fun v -> Model.add_constraint m ~name:"box" [ (v, qi 1) ] Model.Le (qi 50)) vars;
  m

let prop_optimum_feasible_and_basic =
  QCheck.Test.make ~name:"exact optimum is feasible and basic" ~count:200 random_bounded_lp_gen
    (fun spec ->
      let m = build_lp spec in
      match Simplex.Exact.solve m with
      | Simplex.Optimal { objective; solution; _ } ->
        let nonzeros = Array.fold_left (fun acc x -> if Q.is_zero x then acc else acc + 1) 0 solution in
        Model.is_feasible m solution
        && nonzeros <= Model.num_constraints m
        && Q.equal objective (Model.eval_terms (Model.objective m) solution)
      | Simplex.Infeasible | Simplex.Unbounded -> false)

let prop_exact_matches_float =
  QCheck.Test.make ~name:"exact and float objectives agree" ~count:200 random_bounded_lp_gen
    (fun spec ->
      let m = build_lp spec in
      match (Simplex.Exact.solve m, Simplex.Approx.solve m) with
      | Simplex.Optimal { objective = oe; _ }, Simplex.Optimal { objective = of_; _ } ->
        Float.abs (Q.to_float oe -. of_) < 1e-6 *. (1.0 +. Float.abs of_)
      | Simplex.Infeasible, Simplex.Infeasible | Simplex.Unbounded, Simplex.Unbounded -> true
      | _ -> false)

let prop_optimum_no_better_feasible_corner =
  (* The optimum must not beat any sampled feasible point. *)
  QCheck.Test.make ~name:"optimum dominates sampled feasible points" ~count:100
    random_bounded_lp_gen (fun spec ->
      let m = build_lp spec in
      match Simplex.Exact.solve m with
      | Simplex.Optimal { objective; _ } ->
        (* x = 0 is feasible by construction; objective(0) = 0 >= optimum. *)
        Q.compare objective Q.zero <= 0
        || Q.is_zero objective
      | _ -> false)

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "spp_lp"
    [
      ( "model",
        [
          Alcotest.test_case "building" `Quick test_model_building;
          Alcotest.test_case "feasibility check" `Quick test_model_feasibility_check;
        ] );
      ( "simplex-unit",
        [
          Alcotest.test_case "textbook LP" `Quick test_simplex_textbook;
          Alcotest.test_case "phase-1 LP" `Quick test_simplex_phase1;
          Alcotest.test_case "equality constraints" `Quick test_simplex_equality;
          Alcotest.test_case "infeasible" `Quick test_simplex_infeasible;
          Alcotest.test_case "unbounded" `Quick test_simplex_unbounded;
          Alcotest.test_case "negative rhs" `Quick test_simplex_negative_rhs;
          Alcotest.test_case "degenerate" `Quick test_simplex_degenerate;
          Alcotest.test_case "redundant equalities" `Quick test_simplex_redundant_equalities;
          Alcotest.test_case "fractional data" `Quick test_simplex_fractional_data;
          Alcotest.test_case "Beale anti-cycling" `Quick test_simplex_beale_cycling;
          Alcotest.test_case "zero objective" `Quick test_simplex_zero_objective;
          Alcotest.test_case "duals (textbook)" `Quick test_simplex_duals_textbook;
        ] );
      ( "restricted",
        [
          Alcotest.test_case "dropped row needs rebuild" `Quick test_restricted_dropped_row;
          Alcotest.test_case "70 appends equal Reference" `Quick test_restricted_many_appends;
        ] );
      ( "fallback",
        [
          Alcotest.test_case "overflow at load" `Quick test_fallback_at_load;
          Alcotest.test_case "overflow inside create" `Quick test_fallback_in_create;
          Alcotest.test_case "overflow on the 5th append" `Quick test_fallback_on_kth_append;
        ] );
      ( "simplex-props",
        qt [ prop_optimum_feasible_and_basic; prop_exact_matches_float;
             prop_optimum_no_better_feasible_corner; prop_strong_duality ] );
    ]
