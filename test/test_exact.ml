(* Tests for Spp_exact: the precedence bin-packing DP against hand-solved
   instances and brute-force cross-checks, and the bottom-left order search
   against the heuristics it is meant to calibrate. *)

module Q = Spp_num.Rat
module Rect = Spp_geom.Rect
module Placement = Spp_geom.Placement
module Dag = Spp_dag.Dag
module I = Spp_core.Instance
module Validate = Spp_core.Validate
module Uniform = Spp_core.Uniform
module Prec_binpack = Spp_exact.Prec_binpack
module Order_search = Spp_exact.Order_search

let q = Q.of_ints
let rect id wn wd hn hd = Rect.make ~id ~w:(q wn wd) ~h:(q hn hd)

let prec rects edges =
  I.Prec.make rects (Dag.of_edges ~nodes:(List.map (fun (r : Rect.t) -> r.Rect.id) rects) ~edges)

let item id size = { Prec_binpack.id; size }

(* ------------------------------------------------------------------ *)
(* Prec_binpack *)

let test_binpack_no_precedence () =
  (* 0.5, 0.5, 0.5 without edges: two bins. *)
  let items = [ item 0 (q 1 2); item 1 (q 1 2); item 2 (q 1 2) ] in
  let dag = Dag.of_edges ~nodes:[ 0; 1; 2 ] ~edges:[] in
  Alcotest.(check int) "bins" 2 (Prec_binpack.min_bins items dag)

let test_binpack_chain_forces_bins () =
  (* Chain of three tiny items: precedence forces one bin each. *)
  let items = [ item 0 (q 1 10); item 1 (q 1 10); item 2 (q 1 10) ] in
  let dag = Dag.of_edges ~nodes:[ 0; 1; 2 ] ~edges:[ (0, 1); (1, 2) ] in
  Alcotest.(check int) "bins" 3 (Prec_binpack.min_bins items dag)

let test_binpack_mixed () =
  (* 0 -> 2 with sizes 0.5/0.5/0.5: bin1 {0,1}, bin2 {2} = 2 bins; but the
     greedy that puts 1 with 2 still needs 2. Optimal is 2. *)
  let items = [ item 0 (q 1 2); item 1 (q 1 2); item 2 (q 1 2) ] in
  let dag = Dag.of_edges ~nodes:[ 0; 1; 2 ] ~edges:[ (0, 2) ] in
  Alcotest.(check int) "bins" 2 (Prec_binpack.min_bins items dag);
  (* Force a suboptimal-looking split: 0 -> 1, 0 -> 2: {0} then {1,2}. *)
  let dag2 = Dag.of_edges ~nodes:[ 0; 1; 2 ] ~edges:[ (0, 1); (0, 2) ] in
  Alcotest.(check int) "fork bins" 2 (Prec_binpack.min_bins items dag2)

let test_binpack_empty_and_guards () =
  Alcotest.(check int) "empty" 0 (Prec_binpack.min_bins [] Dag.empty);
  Alcotest.check_raises "too large"
    (Invalid_argument "Prec_binpack.min_bins: instance too large (n > 20)") (fun () ->
      let items = List.init 21 (fun i -> item i (q 1 2)) in
      let dag = Dag.of_edges ~nodes:(List.init 21 Fun.id) ~edges:[] in
      ignore (Prec_binpack.min_bins items dag))

let test_min_height_uniform () =
  (* Heights 1/2 each; widths 0.5 x 3 no edges -> 2 bins -> height 1. *)
  let inst = prec [ rect 0 1 2 1 2; rect 1 1 2 1 2; rect 2 1 2 1 2 ] [] in
  Alcotest.(check string) "height" "1" (Q.to_string (Prec_binpack.min_height inst))

(* DP optimality vs the wave/next-fit heuristics: exact <= every heuristic,
   and exact >= the size lower bound and the path lower bound. *)
let uniform_gen =
  QCheck.make
    ~print:(fun (inst : I.Prec.t) -> Printf.sprintf "n=%d" (I.Prec.size inst))
    QCheck.Gen.(
      let* n = int_range 1 9 in
      let* widths = list_repeat n (int_range 1 8) in
      let rects = List.mapi (fun i wn -> Rect.make ~id:i ~w:(q wn 8) ~h:Q.one) widths in
      let all = List.concat (List.init n (fun i -> List.init i (fun j -> (j, i)))) in
      let* keep = list_repeat (List.length all) (frequency [ (3, return false); (1, return true) ]) in
      let edges = List.filteri (fun idx _ -> List.nth keep idx) all in
      return (I.Prec.make rects
                (Dag.of_edges ~nodes:(List.map (fun (r : Rect.t) -> r.Rect.id) rects) ~edges)))

let prop_dp_sandwiched =
  QCheck.Test.make ~name:"exact DP between lower bounds and heuristics" ~count:100 uniform_gen
    (fun inst ->
      let opt = Q.to_float (Prec_binpack.min_height inst) in
      let _, f_stats = Uniform.next_fit_shelf inst in
      let _, pff_stats = Uniform.prec_first_fit inst in
      let path = Dag.longest_path_length inst.dag in
      let area = Q.to_float (Spp_core.Lower_bounds.area inst) in
      opt >= float_of_int path -. 1e-9
      && opt >= area -. 1e-9
      && opt <= float_of_int f_stats.Uniform.shelves +. 1e-9
      && opt <= float_of_int pff_stats.Uniform.shelves +. 1e-9)

let prop_theorem_2_6_ratio =
  (* Algorithm F within 3x the exact optimum (Theorem 2.6, absolute). *)
  QCheck.Test.make ~name:"Theorem 2.6: F <= 3 * OPT" ~count:100 uniform_gen (fun inst ->
      let opt = Prec_binpack.min_height inst in
      let _, stats = Uniform.next_fit_shelf inst in
      Q.compare (Q.of_int stats.Uniform.shelves) (Q.mul_int opt 3) <= 0)

(* ------------------------------------------------------------------ *)
(* Order search *)

let test_order_search_simple () =
  (* Two half-width unit squares, no precedence: best BL height is 1. *)
  let inst = prec [ rect 0 1 2 1 1; rect 1 1 2 1 1 ] [] in
  let out = Order_search.best_prec inst in
  Alcotest.(check string) "height" "1" (Q.to_string out.Order_search.height);
  Alcotest.(check bool) "placement valid" true
    (Validate.is_valid_prec inst out.Order_search.placement)

let test_order_search_chain () =
  let inst = prec [ rect 0 1 2 1 1; rect 1 1 2 1 1 ] [ (0, 1) ] in
  let out = Order_search.best_prec inst in
  Alcotest.(check string) "serialised" "2" (Q.to_string out.Order_search.height)

let test_order_search_guard () =
  let rects = List.init 11 (fun i -> rect i 1 2 1 1) in
  let inst = prec rects [] in
  Alcotest.check_raises "n > 10" (Invalid_argument "Order_search: instance too large (n > 10)")
    (fun () -> ignore (Order_search.best_prec inst))

(* The kernel against the rational reference: the same height, placement
   text, item order, node count and profile counts. *)
let profiled f =
  Spp_obs.Profile.reset ();
  let out = f () in
  (out, Spp_obs.Profile.read ())

let same_as_reference name kernel reference =
  let (o : Order_search.outcome), p = profiled kernel in
  let (o' : Order_search.outcome), p' = profiled reference in
  let text (o : Order_search.outcome) = Spp_core.Io.placement_to_string o.Order_search.placement in
  Alcotest.(check string) (name ^ ": height") (Q.to_string o'.Order_search.height)
    (Q.to_string o.Order_search.height);
  Alcotest.(check string) (name ^ ": placement") (text o') (text o);
  let order (o : Order_search.outcome) =
    List.map (fun (it : Placement.item) -> it.Placement.rect.Rect.id)
      (Placement.items o.Order_search.placement)
  in
  Alcotest.(check (list int)) (name ^ ": item order, newest first") (order o') (order o);
  Alcotest.(check int) (name ^ ": nodes") o'.Order_search.nodes_expanded
    o.Order_search.nodes_expanded;
  Alcotest.(check int) (name ^ ": profile nodes") p'.Spp_obs.Profile.bb_nodes
    p.Spp_obs.Profile.bb_nodes;
  Alcotest.(check int) (name ^ ": profile pruned") p'.Spp_obs.Profile.bb_pruned
    p.Spp_obs.Profile.bb_pruned;
  o

let same_prec ~kernel name inst =
  Alcotest.(check bool) (name ^ ": kernel path") kernel (Order_search.on_kernel_prec inst);
  same_as_reference name
    (fun () -> Order_search.best_prec inst)
    (fun () -> Order_search.Reference.best_prec inst)

let test_kernel_empty () =
  let check name (o : Order_search.outcome) =
    Alcotest.(check string) (name ^ ": height 0") "0" (Q.to_string o.Order_search.height);
    Alcotest.(check int) (name ^ ": one node") 1 o.Order_search.nodes_expanded
  in
  check "prec" (same_prec ~kernel:true "prec" (prec [] []));
  let inst = I.Release.make ~k:1 [] in
  Alcotest.(check bool) "release: kernel path" true (Order_search.on_kernel_release inst);
  check "release"
    (same_as_reference "release"
       (fun () -> Order_search.best_release inst)
       (fun () -> Order_search.Reference.best_release inst))

let test_kernel_chain () =
  let inst =
    prec [ rect 0 1 3 1 2; rect 1 2 3 1 4; rect 2 1 2 3 4; rect 3 1 6 1 1 ] [ (0, 1); (1, 2); (2, 3) ]
  in
  let o = same_prec ~kernel:true "chain" inst in
  Alcotest.(check string) "heights add up" "5/2" (Q.to_string o.Order_search.height)

let test_kernel_full_width () =
  let inst = prec [ rect 0 1 2 1 2; rect 1 1 1 1 3; rect 2 1 2 2 3; rect 3 1 4 1 1 ] [ (0, 2) ] in
  ignore (same_prec ~kernel:true "width 1" inst)

let test_kernel_fallback () =
  (* Heights 1/p for three primes near 2^40: the y scale is their product,
     about 2^120, so the search runs on rationals. *)
  let h p = Q.make Spp_num.Bigint.one (Spp_num.Bigint.of_int p) in
  let r id wn wd p = Rect.make ~id ~w:(q wn wd) ~h:(h p) in
  let inst =
    prec
      [ r 0 1 2 1_099_511_627_791; r 1 1 3 1_099_511_627_803; r 2 1 2 1_099_511_627_831;
        r 3 1 4 1_099_511_627_791 ]
      [ (0, 3) ]
  in
  ignore (same_prec ~kernel:false "heights 1/p" inst)

let test_kernel_scale_past_native () =
  (* Heights 1/p and 1/q for two primes near 2^32: the y scale pq passes
     a native int, though the y scale times the reach, p + q, does not
     pass 2^60. The search runs on rationals. *)
  let task id p =
    { I.Release.rect = Rect.make ~id ~w:(q 1 2) ~h:(Q.make Spp_num.Bigint.one (Spp_num.Bigint.of_int p));
      release = Q.zero }
  in
  let inst = I.Release.make ~k:2 [ task 0 4_294_967_311; task 1 4_294_967_357 ] in
  Alcotest.(check bool) "kernel path" false (Order_search.on_kernel_release inst);
  let o =
    same_as_reference "heights 1/p, 1/q"
      (fun () -> Order_search.best_release inst)
      (fun () -> Order_search.Reference.best_release inst)
  in
  Alcotest.(check string) "side by side" "1/4294967311" (Q.to_string o.Order_search.height)

let test_kernel_cancel_mid_search () =
  (* About two million nodes. Another domain trips the token once the
     search has polled it 1000 times; the kernel must stop there with
     [Cancelled] and still report the nodes it expanded. *)
  let widths = [ 2; 9; 7; 6; 4; 3; 10; 8; 7; 5 ] in
  let inst = prec (List.mapi (fun i wn -> rect i wn 17 ((i mod 4) + 1) 3) widths) [] in
  Alcotest.(check bool) "kernel path" true (Order_search.on_kernel_prec inst);
  let t = Spp_util.Cancel.create () in
  let stop = Atomic.make false in
  let trip =
    Domain.spawn (fun () ->
        while (not (Atomic.get stop)) && Spp_util.Cancel.polls t < 1000 do
          Domain.cpu_relax ()
        done;
        Spp_util.Cancel.cancel t)
  in
  Spp_obs.Profile.reset ();
  let result =
    match Order_search.best_prec ~cancel:t inst with
    | _ -> "finished"
    | exception Spp_util.Cancel.Cancelled -> "cancelled"
  in
  Atomic.set stop true;
  Domain.join trip;
  Alcotest.(check string) "stopped by the token" "cancelled" result;
  let polls = Spp_util.Cancel.polls t in
  Alcotest.(check bool) (Printf.sprintf "mid-search (%d polls)" polls) true (polls > 1000);
  Alcotest.(check int) "every node but the cancelled one reported" (polls - 1)
    (Spp_obs.Profile.read ()).Spp_obs.Profile.bb_nodes

let small_prec_gen =
  QCheck.make
    ~print:(fun (inst : I.Prec.t) -> Printf.sprintf "n=%d" (I.Prec.size inst))
    QCheck.Gen.(
      let* n = int_range 1 6 in
      let* specs = list_repeat n (pair (int_range 1 4) (int_range 1 4)) in
      let rects = List.mapi (fun i (wn, hn) -> Rect.make ~id:i ~w:(q wn 4) ~h:(q hn 2)) specs in
      let all = List.concat (List.init n (fun i -> List.init i (fun j -> (j, i)))) in
      let* keep = list_repeat (List.length all) (frequency [ (4, return false); (1, return true) ]) in
      let edges = List.filteri (fun idx _ -> List.nth keep idx) all in
      return (I.Prec.make rects
                (Dag.of_edges ~nodes:(List.map (fun (r : Rect.t) -> r.Rect.id) rects) ~edges)))

let prop_order_search_dominates_heuristics =
  QCheck.Test.make ~name:"order search <= DC and list scheduling" ~count:60 small_prec_gen
    (fun inst ->
      let best = (Order_search.best_prec inst).Order_search.height in
      let dc = Spp_core.Dc.height inst in
      let ls = Placement.height (Spp_core.List_schedule.prec inst) in
      Q.compare best dc <= 0 && Q.compare best ls <= 0)

let prop_order_search_valid_and_bounded_below =
  QCheck.Test.make ~name:"order search valid; >= both lower bounds" ~count:60 small_prec_gen
    (fun inst ->
      let out = Order_search.best_prec inst in
      Validate.check_prec inst out.Order_search.placement = []
      && Q.compare out.Order_search.height (Spp_core.Lower_bounds.area inst) >= 0
      && Q.compare out.Order_search.height (Spp_core.Lower_bounds.critical_path inst) >= 0)

let small_release_gen =
  QCheck.make
    ~print:(fun (inst : I.Release.t) -> Printf.sprintf "n=%d" (I.Release.size inst))
    QCheck.Gen.(
      let* n = int_range 1 5 in
      let* specs = list_repeat n (triple (int_range 1 2) (int_range 1 4) (int_range 0 4)) in
      let tasks =
        List.mapi
          (fun i (wn, hn, rel) ->
            { I.Release.rect = Rect.make ~id:i ~w:(q wn 2) ~h:(q hn 4); release = q rel 2 })
          specs
      in
      return (I.Release.make ~k:2 tasks))

let prop_order_search_release =
  QCheck.Test.make ~name:"release order search valid and dominates list scheduling" ~count:60
    small_release_gen (fun inst ->
      let out = Order_search.best_release inst in
      Validate.check_release inst out.Order_search.placement = []
      && Q.compare out.Order_search.height
           (Placement.height (Spp_core.List_schedule.release inst))
         <= 0
      && Q.compare out.Order_search.height (Spp_core.Lower_bounds.release inst) >= 0)

(* ------------------------------------------------------------------ *)
(* Normal-position branch and bound (true exact solver) *)

module Normal_bb = Spp_exact.Normal_bb

let test_normal_bb_trivial () =
  let inst = prec [ rect 0 1 2 1 1; rect 1 1 2 1 1 ] [] in
  Alcotest.(check bool) "on the grid" true (Normal_bb.on_grid inst);
  let out = Normal_bb.solve inst in
  Alcotest.(check string) "side by side" "1" (Q.to_string out.Normal_bb.height);
  let chain = prec [ rect 0 1 2 1 1; rect 1 1 2 1 1 ] [ (0, 1) ] in
  Alcotest.(check bool) "chain on the grid" true (Normal_bb.on_grid chain);
  Alcotest.(check string) "chain serialises" "2" (Q.to_string (Normal_bb.solve chain).Normal_bb.height)

let test_normal_bb_beats_bottom_left () =
  (* A case where every bottom-left packing is suboptimal would separate the
     two solvers; on tiny instances they usually agree — check agreement
     direction: exact <= order search, and exact is validated. *)
  let inst =
    prec [ rect 0 1 2 1 1; rect 1 1 2 1 2; rect 2 1 4 3 2; rect 3 3 4 1 2 ] [ (0, 3) ]
  in
  Alcotest.(check bool) "on the grid" true (Normal_bb.on_grid inst);
  let bb = Normal_bb.solve inst in
  let os = Order_search.best_prec inst in
  Alcotest.(check bool) "exact <= BL search" true
    (Q.compare bb.Normal_bb.height os.Order_search.height <= 0);
  Alcotest.(check bool) "valid" true (Validate.is_valid_prec inst bb.Normal_bb.placement)

let test_normal_bb_guard () =
  let rects = List.init 10 (fun i -> rect i 1 2 1 1) in
  Alcotest.check_raises "n > 9" (Invalid_argument "Normal_bb.solve: instance too large (n > 9)")
    (fun () -> ignore (Normal_bb.solve (prec rects [])))

(* Three identical two-thirds-width rects must stack (opt 3) while the
   area bound is only 2, so the seed cannot short-circuit the search and
   the permutation symmetry guarantees the dominance table fires. *)
let dominance_inst () = prec [ rect 0 2 3 1 1; rect 1 2 3 1 1; rect 2 2 3 1 1 ] []

let test_normal_bb_dominance_prunes () =
  let inst = dominance_inst () in
  Alcotest.(check bool) "on the grid" true (Normal_bb.on_grid inst);
  Spp_obs.Profile.reset ();
  let on = Normal_bb.solve ~dominance:true inst in
  let p_on = Spp_obs.Profile.read () in
  Spp_obs.Profile.reset ();
  let off = Normal_bb.solve ~dominance:false inst in
  let p_off = Spp_obs.Profile.read () in
  Alcotest.(check string) "optimum" "3" (Q.to_string on.Normal_bb.height);
  Alcotest.(check string) "dominance never cuts the optimum" (Q.to_string off.Normal_bb.height)
    (Q.to_string on.Normal_bb.height);
  Alcotest.(check bool) "dominance table fired"
    true (p_on.Spp_obs.Profile.bb_dominated > 0);
  Alcotest.(check int) "undominated search reports no dominated states" 0
    p_off.Spp_obs.Profile.bb_dominated;
  Alcotest.(check bool)
    (Printf.sprintf "dominance shrinks the tree (%d >= %d nodes)"
       p_off.Spp_obs.Profile.bb_nodes p_on.Spp_obs.Profile.bb_nodes)
    true
    (p_off.Spp_obs.Profile.bb_nodes >= p_on.Spp_obs.Profile.bb_nodes)

let test_normal_bb_profile_attribution () =
  (* The ambient profile must account for exactly the nodes the outcome
     reports (seed + search), on the calling domain, pruned included. *)
  let inst = dominance_inst () in
  Alcotest.(check bool) "on the grid" true (Normal_bb.on_grid inst);
  Spp_obs.Profile.reset ();
  let out = Normal_bb.solve inst in
  let p = Spp_obs.Profile.read () in
  Alcotest.(check int) "profile nodes = outcome nodes" out.Normal_bb.nodes_expanded
    p.Spp_obs.Profile.bb_nodes;
  Alcotest.(check bool) "bound pruning counted" true (p.Spp_obs.Profile.bb_pruned > 0)

let test_normal_bb_parallel_profile_attribution () =
  (* Worker domains must not leak counts into their own DLS cells: the
     caller aggregates, so the calling domain sees the whole search. *)
  let inst = dominance_inst () in
  Alcotest.(check bool) "on the grid" true (Normal_bb.on_grid inst);
  Spp_obs.Profile.reset ();
  let out = Normal_bb.solve ~workers:4 inst in
  let p = Spp_obs.Profile.read () in
  Alcotest.(check int) "profile nodes = outcome nodes (4 workers)"
    out.Normal_bb.nodes_expanded p.Spp_obs.Profile.bb_nodes

let test_normal_bb_cancel_mid_search () =
  (* A 3736-node seed, then about 1.5 million B&B nodes over four
     workers. Another domain trips the token 1000 polls into the B&B
     phase: the solve must raise [Cancelled] only once every worker has
     joined, and the calling domain's profile must hold the nodes they
     expanded. *)
  let widths = [ 2; 9; 7; 6; 4; 3; 10 ] in
  let inst = prec (List.mapi (fun i wn -> rect i wn 17 ((i mod 4) + 1) 3) widths) [] in
  Alcotest.(check bool) "on the grid" true (Normal_bb.on_grid inst);
  let seed_polls =
    let t = Spp_util.Cancel.create () in
    ignore (Order_search.best_prec ~cancel:t inst);
    Spp_util.Cancel.polls t
  in
  let t = Spp_util.Cancel.create () in
  let stop = Atomic.make false in
  let trip =
    Domain.spawn (fun () ->
        while (not (Atomic.get stop)) && Spp_util.Cancel.polls t < seed_polls + 1000 do
          Domain.cpu_relax ()
        done;
        Spp_util.Cancel.cancel t)
  in
  Spp_obs.Profile.reset ();
  let result =
    match Normal_bb.solve ~cancel:t ~workers:4 inst with
    | _ -> "finished"
    | exception Spp_util.Cancel.Cancelled -> "cancelled"
  in
  let polls = Spp_util.Cancel.polls t in
  Atomic.set stop true;
  Domain.join trip;
  Alcotest.(check string) "stopped by the token" "cancelled" result;
  Alcotest.(check bool) (Printf.sprintf "in the B&B phase (%d polls)" polls) true
    (polls > seed_polls + 1000);
  (* A worker still running after the raise would poll the token again. *)
  Unix.sleepf 0.05;
  Alcotest.(check int) "no poll after the raise" polls (Spp_util.Cancel.polls t);
  (* Every poll but a raising one (at most one per worker) is a node. *)
  let nodes = (Spp_obs.Profile.read ()).Spp_obs.Profile.bb_nodes in
  Alcotest.(check bool)
    (Printf.sprintf "profile holds the expanded nodes (%d nodes, %d polls)" nodes polls)
    true
    (nodes >= polls - 4 && nodes <= polls - 1)

(* The kernel against the rational search on every view of a result:
   height, placement text, item order (input order, or the seed's), nodes
   expanded and the profile's node, pruned and dominated counts. *)
let same_as_rational name ~dominance inst =
  let run solve =
    Spp_obs.Profile.reset ();
    let o = solve ~dominance inst in
    (o, Spp_obs.Profile.read ())
  in
  let o, p = run (fun ~dominance inst -> Normal_bb.solve ~dominance inst) in
  let o', p' = run (fun ~dominance inst -> Normal_bb.Rational.solve ~dominance inst) in
  let name = Printf.sprintf "%s, dominance %b" name dominance in
  let ids (o : Normal_bb.outcome) =
    List.map
      (fun (it : Placement.item) -> it.Placement.rect.Rect.id)
      (Placement.items o.Normal_bb.placement)
  in
  Alcotest.(check string) (name ^ ": height") (Q.to_string o'.Normal_bb.height)
    (Q.to_string o.Normal_bb.height);
  Alcotest.(check string) (name ^ ": placement")
    (Spp_core.Io.placement_to_string o'.Normal_bb.placement)
    (Spp_core.Io.placement_to_string o.Normal_bb.placement);
  Alcotest.(check (list int)) (name ^ ": item order") (ids o') (ids o);
  Alcotest.(check int) (name ^ ": nodes") o'.Normal_bb.nodes_expanded o.Normal_bb.nodes_expanded;
  Alcotest.(check (triple int int int)) (name ^ ": profile nodes/pruned/dominated")
    Spp_obs.Profile.(p'.bb_nodes, p'.bb_pruned, p'.bb_dominated)
    Spp_obs.Profile.(p.bb_nodes, p.bb_pruned, p.bb_dominated);
  o

let test_normal_bb_kernel_same_tree () =
  let corpus = if Sys.file_exists "../data/corpus" then "../data/corpus" else "data/corpus" in
  let hard7 =
    match Spp_core.Io.read_file (Filename.concat corpus "hard7_symmetric.spp") with
    | Spp_core.Io.Prec inst -> inst
    | Spp_core.Io.Release _ -> Alcotest.fail "hard7_symmetric is a precedence instance"
  in
  List.iter
    (fun (name, inst) ->
      Alcotest.(check bool) (name ^ ": on the grid") true (Normal_bb.on_grid inst);
      List.iter (fun dominance -> ignore (same_as_rational name ~dominance inst)) [ true; false ])
    [ ("dominance_inst", dominance_inst ()); ("hard7_symmetric", hard7) ]

let test_normal_bb_kernel_guard () =
  (* Every height times p/(p+1): for p = 2^20 - 3 the heights' sum on the
     y grid is about 2^22, so the kernel runs on large values; for
     p = 2^61 - 1 each height on the grid passes 2^60, so the search runs
     on rationals. A common factor on y preserves every comparison, so
     both expand the unscaled tree. *)
  let base = dominance_inst () in
  let unscaled = (Normal_bb.solve base).Normal_bb.nodes_expanded in
  List.iter
    (fun (name, p, on_grid) ->
      let f = Q.of_ints p (p + 1) in
      let scale (r : Rect.t) = Rect.make ~id:r.Rect.id ~w:r.Rect.w ~h:(Q.mul r.Rect.h f) in
      let inst = I.Prec.make (List.map scale base.I.Prec.rects) base.I.Prec.dag in
      Alcotest.(check bool) (name ^ ": on the grid") on_grid (Normal_bb.on_grid inst);
      let o = same_as_rational name ~dominance:true inst in
      Alcotest.(check int) (name ^ ": the unscaled tree") unscaled o.Normal_bb.nodes_expanded;
      Alcotest.(check string) (name ^ ": height 3 times p/(p+1)") (Q.to_string (Q.mul_int f 3))
        (Q.to_string o.Normal_bb.height))
    [ ("p = 2^20 - 3", 1_048_573, true); ("p = 2^61 - 1", (1 lsl 61) - 1, false) ]

let prop_normal_bb_dominance_never_cuts =
  (* Exhaustive cross-check on n <= 6: the dominance-pruned search and the
     undominated search agree on the optimum for every generated DAG. *)
  QCheck.Test.make ~name:"dominance on = dominance off (n <= 6)" ~count:80 small_prec_gen
    (fun inst ->
      Q.equal
        (Normal_bb.solve ~dominance:true inst).Normal_bb.height
        (Normal_bb.solve ~dominance:false inst).Normal_bb.height)

let prop_normal_bb_parallel_deterministic =
  QCheck.Test.make ~name:"B&B height identical for 1 vs 4 workers" ~count:40 small_prec_gen
    (fun inst ->
      Q.equal
        (Normal_bb.solve ~workers:1 inst).Normal_bb.height
        (Normal_bb.solve ~workers:4 inst).Normal_bb.height)

let tiny_prec_gen =
  QCheck.make
    ~print:(fun (inst : I.Prec.t) -> Printf.sprintf "n=%d" (I.Prec.size inst))
    QCheck.Gen.(
      let* n = int_range 1 5 in
      let* specs = list_repeat n (pair (int_range 1 4) (int_range 1 3)) in
      let rects = List.mapi (fun i (wn, hn) -> Rect.make ~id:i ~w:(q wn 4) ~h:(q hn 2)) specs in
      let all = List.concat (List.init n (fun i -> List.init i (fun j -> (j, i)))) in
      let* keep = list_repeat (List.length all) (frequency [ (4, return false); (1, return true) ]) in
      let edges = List.filteri (fun idx _ -> List.nth keep idx) all in
      return (I.Prec.make rects
                (Dag.of_edges ~nodes:(List.map (fun (r : Rect.t) -> r.Rect.id) rects) ~edges)))

let prop_normal_bb_is_exact_reference =
  (* The true optimum is sandwiched: >= both lower bounds, <= every
     algorithm (DC, list scheduling, BL order search), and for uniform
     heights it must equal the DP optimum. *)
  QCheck.Test.make ~name:"normal-position B&B sandwiched by bounds and algorithms" ~count:60
    tiny_prec_gen (fun inst ->
      let opt = (Normal_bb.solve inst).Normal_bb.height in
      Q.compare opt (Spp_core.Lower_bounds.prec inst) >= 0
      && Q.compare opt (Spp_core.Dc.height inst) <= 0
      && Q.compare opt (Placement.height (Spp_core.List_schedule.prec inst)) <= 0
      && Q.compare opt (Order_search.best_prec inst).Order_search.height <= 0)

let prop_normal_bb_matches_dp_on_uniform =
  QCheck.Test.make ~name:"normal-position B&B = DP optimum (uniform heights)" ~count:40
    (QCheck.make
       ~print:(fun (inst : I.Prec.t) -> Printf.sprintf "n=%d" (I.Prec.size inst))
       QCheck.Gen.(
         let* n = int_range 1 5 in
         let* widths = list_repeat n (int_range 1 4) in
         let rects = List.mapi (fun i wn -> Rect.make ~id:i ~w:(q wn 4) ~h:Q.one) widths in
         let all = List.concat (List.init n (fun i -> List.init i (fun j -> (j, i)))) in
         let* keep = list_repeat (List.length all) (frequency [ (4, return false); (1, return true) ]) in
         let edges = List.filteri (fun idx _ -> List.nth keep idx) all in
         return (I.Prec.make rects
                   (Dag.of_edges ~nodes:(List.map (fun (r : Rect.t) -> r.Rect.id) rects) ~edges))))
    (fun inst ->
      let bb = (Normal_bb.solve inst).Normal_bb.height in
      Q.equal bb (Prec_binpack.min_height inst))

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "spp_exact"
    [
      ( "prec-binpack",
        Alcotest.test_case "no precedence" `Quick test_binpack_no_precedence
        :: Alcotest.test_case "chain forces bins" `Quick test_binpack_chain_forces_bins
        :: Alcotest.test_case "mixed" `Quick test_binpack_mixed
        :: Alcotest.test_case "empty and guards" `Quick test_binpack_empty_and_guards
        :: Alcotest.test_case "min_height" `Quick test_min_height_uniform
        :: qt [ prop_dp_sandwiched; prop_theorem_2_6_ratio ] );
      ( "order-search",
        Alcotest.test_case "simple" `Quick test_order_search_simple
        :: Alcotest.test_case "chain" `Quick test_order_search_chain
        :: Alcotest.test_case "size guard" `Quick test_order_search_guard
        :: Alcotest.test_case "kernel: empty instances" `Quick test_kernel_empty
        :: Alcotest.test_case "kernel: chain" `Quick test_kernel_chain
        :: Alcotest.test_case "kernel: width-1 rectangle" `Quick test_kernel_full_width
        :: Alcotest.test_case "kernel: falls back past 2^60" `Quick test_kernel_fallback
        :: Alcotest.test_case "kernel: falls back past a native scale" `Quick
             test_kernel_scale_past_native
        :: Alcotest.test_case "kernel: cancelled mid-search" `Quick test_kernel_cancel_mid_search
        :: qt
             [
               prop_order_search_dominates_heuristics;
               prop_order_search_valid_and_bounded_below;
               prop_order_search_release;
             ] );
      ( "normal-bb",
        Alcotest.test_case "trivial" `Quick test_normal_bb_trivial
        :: Alcotest.test_case "vs bottom-left" `Quick test_normal_bb_beats_bottom_left
        :: Alcotest.test_case "size guard" `Quick test_normal_bb_guard
        :: Alcotest.test_case "dominance prunes" `Quick test_normal_bb_dominance_prunes
        :: Alcotest.test_case "profile attribution" `Quick test_normal_bb_profile_attribution
        :: Alcotest.test_case "parallel profile attribution" `Quick
             test_normal_bb_parallel_profile_attribution
        :: qt
             [
               prop_normal_bb_is_exact_reference;
               prop_normal_bb_matches_dp_on_uniform;
               prop_normal_bb_dominance_never_cuts;
               prop_normal_bb_parallel_deterministic;
             ]
        @ [ Alcotest.test_case "cancelled mid-search, 4 workers" `Quick
              test_normal_bb_cancel_mid_search;
            Alcotest.test_case "kernel: the rational tree, node for node" `Quick
              test_normal_bb_kernel_same_tree;
            Alcotest.test_case "kernel: large values on the grid, rationals past it" `Quick
              test_normal_bb_kernel_guard ] );
    ]
