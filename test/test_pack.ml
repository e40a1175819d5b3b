(* Tests for Spp_pack: level algorithms (including the NFDH subroutine
   property DC's proof needs), bin packing heuristics, and bottom-left. *)

module Q = Spp_num.Rat
module Rect = Spp_geom.Rect
module Placement = Spp_geom.Placement
module Level = Spp_pack.Level
module Binpack = Spp_pack.Binpack
module Bottom_left = Spp_pack.Bottom_left

let q = Q.of_ints
let rect id wn wd hn hd = Rect.make ~id ~w:(q wn wd) ~h:(q hn hd)

(* Random rect lists with widths i/8 and heights j/4. *)
let rects_gen =
  QCheck.make
    ~print:(fun rs -> Printf.sprintf "%d rects" (List.length rs))
    QCheck.Gen.(
      let* n = int_range 1 40 in
      let* specs = list_repeat n (pair (int_range 1 8) (int_range 1 8)) in
      return (List.mapi (fun i (wn, hn) -> Rect.make ~id:i ~w:(q wn 8) ~h:(q hn 4)) specs))

(* ------------------------------------------------------------------ *)
(* Level algorithms *)

let test_nfdh_simple () =
  (* Two half-width rects share the first level; a full-width one opens a
     second. *)
  let rs = [ rect 0 1 2 1 1; rect 1 1 2 1 1; rect 2 1 1 1 2 ] in
  let p = Level.nfdh rs in
  Alcotest.(check bool) "valid" true (Placement.is_valid p);
  Alcotest.(check string) "height" "3/2" (Q.to_string (Placement.height p))

let test_nfdh_closes_level () =
  (* NFDH (next-fit) cannot reuse an earlier level: 0.6, 0.6, 0.3 with equal
     heights -> levels {0.6}, {0.6, 0.3}: height 2. FFDH reuses: also 2 here,
     so use a case separating them: 0.6, 0.5, 0.5, 0.4 (heights 1, 1, 1, 1):
     NFDH: [0.6] [0.5 0.5] [0.4] wait 0.6+0.5>1 close; 0.5+0.5=1 fits; 0.4 new -> 3 levels.
     FFDH: [0.6 0.4 after backfill? 0.6;0.5 no; level1 gets 0.4] -> [0.6,0.4][0.5,0.5] -> 2. *)
  let rs = [ rect 0 3 5 1 1; rect 1 1 2 1 1; rect 2 1 2 1 1; rect 3 2 5 1 1 ] in
  let nf = Placement.height (Level.nfdh rs) in
  let ff = Placement.height (Level.ffdh rs) in
  Alcotest.(check string) "nfdh height" "3" (Q.to_string nf);
  Alcotest.(check string) "ffdh height" "2" (Q.to_string ff)

let test_bfdh_prefers_fullest () =
  (* Levels with residuals 0.4 and 0.3; a 0.3 rect must go to the 0.3 gap
     under best fit. Construct: heights descending so levels form as
     [0.6], [0.7], then 0.3 arrives. BFDH -> joins the 0.7 level. *)
  let rs = [ rect 0 3 5 1 1; rect 1 7 10 9 10; rect 2 3 10 4 5 ] in
  let p = Level.bfdh rs in
  Alcotest.(check bool) "valid" true (Placement.is_valid p);
  (* The 0.3 rect sits beside the 0.7 one (same y). *)
  let y_of id =
    match Placement.find p ~id with Some it -> it.pos.Placement.y | None -> Alcotest.fail "missing"
  in
  Alcotest.(check string) "0.3 beside 0.7" (Q.to_string (y_of 1)) (Q.to_string (y_of 2))

let test_level_empty () =
  Alcotest.(check int) "nfdh empty" 0 (Placement.size (Level.nfdh []));
  Alcotest.(check string) "nfdh_height empty" "0" (Q.to_string (Level.nfdh_height []))

let prop_level_algorithms_valid =
  QCheck.Test.make ~name:"level packings are valid and complete" ~count:200 rects_gen (fun rs ->
      List.for_all
        (fun alg ->
          let p = alg rs in
          Placement.is_valid p && Placement.size p = List.length rs)
        [ Level.nfdh; Level.ffdh; Level.bfdh ])

(* The property Theorem 2.3 needs from the subroutine A. *)
let prop_nfdh_area_bound =
  QCheck.Test.make ~name:"NFDH <= 2*AREA + h_max" ~count:300 rects_gen (fun rs ->
      let h = Level.nfdh_height rs in
      let bound = Q.add (Q.mul_int (Rect.total_area rs) 2) (Rect.max_height rs) in
      Q.compare h bound <= 0)

let prop_ffdh_not_worse_than_nfdh =
  QCheck.Test.make ~name:"FFDH <= NFDH" ~count:200 rects_gen (fun rs ->
      Q.compare (Placement.height (Level.ffdh rs)) (Level.nfdh_height rs) <= 0)

let prop_level_height_at_least_area =
  QCheck.Test.make ~name:"height >= AREA (sanity)" ~count:200 rects_gen (fun rs ->
      Q.compare (Level.nfdh_height rs) (Rect.total_area rs) >= 0)

(* NFDH keeps only its open level; Level.Reference.nfdh runs it on the
   generic level packer and is the oracle, compared item for item
   (rectangle and position, order included). *)
let same_items a b =
  let item (it : Placement.item) =
    (it.Placement.rect.Rect.id, Q.to_string it.pos.Placement.x, Q.to_string it.pos.Placement.y)
  in
  List.map item (Placement.items a) = List.map item (Placement.items b)

let prop_nfdh_matches_reference =
  QCheck.Test.make ~name:"NFDH = Level.Reference.nfdh, item for item" ~count:300 rects_gen
    (fun rs -> same_items (Level.nfdh rs) (Level.Reference.nfdh rs))

let test_nfdh_many_levels () =
  (* 1024 rects 3/4 wide: one level each, where the reference's level
     list is longest. *)
  let rs = List.init 1024 (fun i -> Rect.make ~id:(1023 - i) ~w:(q 3 4) ~h:(q (1 + (i mod 3)) 4)) in
  Alcotest.(check bool) "same items as the reference" true
    (same_items (Level.nfdh rs) (Level.Reference.nfdh rs))

(* ------------------------------------------------------------------ *)
(* Bin packing *)

let items_of sizes = List.mapi (fun i (n, d) -> { Binpack.id = i; size = q n d }) sizes

let test_binpack_next_fit () =
  let bins = Binpack.next_fit (items_of [ (1, 2); (1, 2); (1, 2) ]) in
  Alcotest.(check int) "bins" 2 (List.length bins);
  Alcotest.(check (list (list int))) "contents" [ [ 0; 1 ]; [ 2 ] ] bins

let test_binpack_first_fit_backfills () =
  (* 0.6, 0.7, 0.35: NF needs a third bin (0.7+0.35 > 1), FF backfills the
     0.35 into bin 0 (0.6+0.35 <= 1). *)
  let items = items_of [ (3, 5); (7, 10); (7, 20) ] in
  Alcotest.(check int) "next_fit" 3 (List.length (Binpack.next_fit items));
  let ff = Binpack.first_fit items in
  Alcotest.(check int) "first_fit" 2 (List.length ff);
  Alcotest.(check (list (list int))) "ff contents" [ [ 0; 2 ]; [ 1 ] ] ff

let test_binpack_ffd () =
  (* Classic FFD win: sizes 0.5,0.5,0.4,0.4,0.3,0.3,0.3 -> FFD gives 3 bins? wait
     sum = 2.7; FFD: [0.5 0.5][0.4 0.4][0.3 0.3 0.3] -> wait 0.5+0.5=1.0 ok -> 3 bins. *)
  let items = items_of [ (1, 2); (1, 2); (2, 5); (2, 5); (3, 10); (3, 10); (3, 10) ] in
  Alcotest.(check int) "ffd bins" 3 (List.length (Binpack.first_fit_decreasing items))

let test_binpack_best_fit () =
  (* Bins at 0.6 and 0.7 full; 0.3 goes to the fuller (0.7) one under BF. *)
  let items = items_of [ (3, 5); (7, 10); (3, 10) ] in
  let bf = Binpack.best_fit items in
  Alcotest.(check (list (list int))) "bf contents" [ [ 0 ]; [ 1; 2 ] ] bf

let test_binpack_harmonic () =
  (* classes = 3: sizes 0.6 (class 1), 0.4 (class 2), 0.3 (class 3+rest).
     Class-2 bins take two items each; class-1 one each. *)
  let items = items_of [ (3, 5); (2, 5); (2, 5); (2, 5); (3, 10); (3, 10) ] in
  let bins = Binpack.harmonic ~classes:3 items in
  (* item 0 alone; items 1,2 pair; item 3 alone (open); 4,5 via next fit. *)
  Alcotest.(check int) "bins" 4 (List.length bins);
  Alcotest.(check bool) "pair bin exists" true (List.exists (fun b -> b = [ 1; 2 ]) bins);
  Alcotest.check_raises "bad classes" (Invalid_argument "Binpack.harmonic: classes must be >= 1")
    (fun () -> ignore (Binpack.harmonic ~classes:0 items))

let test_binpack_rejects_bad_size () =
  Alcotest.check_raises "zero size" (Invalid_argument "Binpack: item 0 size outside (0,1]")
    (fun () -> ignore (Binpack.next_fit [ { Binpack.id = 0; size = Q.zero } ]))

let sizes_gen =
  QCheck.make
    ~print:(fun l -> string_of_int (List.length l))
    QCheck.Gen.(
      let* n = int_range 1 30 in
      let* specs = list_repeat n (int_range 1 8) in
      return (List.mapi (fun i v -> { Binpack.id = i; size = q v 8 }) specs))

let prop_binpack_bins_respect_capacity =
  QCheck.Test.make ~name:"bins never exceed capacity; items conserved" ~count:300 sizes_gen
    (fun items ->
      List.for_all
        (fun alg ->
          let bins = alg items in
          let size_of id = (List.find (fun it -> it.Binpack.id = id) items).Binpack.size in
          let ok_cap =
            List.for_all
              (fun bin ->
                Q.compare (List.fold_left (fun a id -> Q.add a (size_of id)) Q.zero bin) Q.one <= 0)
              bins
          in
          let all = List.sort compare (List.concat bins) in
          ok_cap && all = List.init (List.length items) Fun.id)
        [ Binpack.next_fit; Binpack.first_fit; Binpack.first_fit_decreasing; Binpack.best_fit;
          Binpack.harmonic ~classes:4; Binpack.harmonic ~classes:1 ])

let prop_ffd_within_2x_lower_bound =
  (* Weak but meaningful: FFD <= 2 * ceil(total size) on these inputs. *)
  QCheck.Test.make ~name:"FFD within 2x the size bound" ~count:300 sizes_gen (fun items ->
      let bins = List.length (Binpack.first_fit_decreasing items) in
      bins <= max 1 (2 * Binpack.size_lower_bound items))

(* ------------------------------------------------------------------ *)
(* Knapsack *)

let test_knapsack_basic () =
  let items =
    [ { Spp_pack.Knapsack.weight = 3; value = 4.0; bound = 1 };
      { Spp_pack.Knapsack.weight = 4; value = 5.0; bound = 1 };
      { Spp_pack.Knapsack.weight = 2; value = 3.0; bound = 1 } ]
  in
  let v, counts = Spp_pack.Knapsack.solve ~capacity:7 items in
  (* Best: items 1+2 (weight 6, value 8) vs 0+2 (5, 7) vs 0+1 (7, 9). *)
  Alcotest.(check (float 1e-9)) "value" 9.0 v;
  Alcotest.(check (array int)) "counts" [| 1; 1; 0 |] counts

let test_knapsack_bounded_copies () =
  let items = [ { Spp_pack.Knapsack.weight = 2; value = 3.0; bound = 2 } ] in
  let v, counts = Spp_pack.Knapsack.solve ~capacity:10 items in
  Alcotest.(check (float 1e-9)) "respects bound" 6.0 v;
  Alcotest.(check (array int)) "two copies" [| 2 |] counts

let test_knapsack_edges () =
  let v, counts = Spp_pack.Knapsack.solve ~capacity:0 [ { Spp_pack.Knapsack.weight = 1; value = 1.0; bound = 5 } ] in
  Alcotest.(check (float 1e-9)) "zero capacity" 0.0 v;
  Alcotest.(check (array int)) "nothing taken" [| 0 |] counts;
  let v2, _ = Spp_pack.Knapsack.solve ~capacity:5 [] in
  Alcotest.(check (float 1e-9)) "no items" 0.0 v2;
  Alcotest.check_raises "bad weight" (Invalid_argument "Knapsack.solve: non-positive weight")
    (fun () -> ignore (Spp_pack.Knapsack.solve ~capacity:3 [ { Spp_pack.Knapsack.weight = 0; value = 1.0; bound = 1 } ]))

let prop_knapsack_vs_bruteforce =
  (* Exhaustive check against brute force on small instances. *)
  QCheck.Test.make ~name:"knapsack matches brute force" ~count:300
    QCheck.(
      pair (int_range 0 12)
        (list_of_size Gen.(int_range 1 4)
           (triple (int_range 1 6) (int_range 0 8) (int_range 0 3))))
    (fun (capacity, specs) ->
      let items =
        List.map
          (fun (w, v, b) -> { Spp_pack.Knapsack.weight = w; value = float_of_int v; bound = b })
          specs
      in
      let v, counts = Spp_pack.Knapsack.solve ~capacity items in
      (* Solution must be feasible and match its claimed value. *)
      let arr = Array.of_list items in
      let used = ref 0 and got = ref 0.0 in
      Array.iteri
        (fun i c ->
          used := !used + (c * arr.(i).Spp_pack.Knapsack.weight);
          got := !got +. (float_of_int c *. arr.(i).Spp_pack.Knapsack.value))
        counts;
      let feasible =
        !used <= capacity
        && Array.for_all Fun.id (Array.mapi (fun i c -> c <= arr.(i).Spp_pack.Knapsack.bound && c >= 0) counts)
      in
      (* Brute force over all count vectors. *)
      let rec best i weight value =
        if i = Array.length arr then (if weight <= capacity then value else neg_infinity)
        else begin
          let it = arr.(i) in
          let acc = ref neg_infinity in
          for c = 0 to it.Spp_pack.Knapsack.bound do
            let w = weight + (c * it.Spp_pack.Knapsack.weight) in
            if w <= capacity then
              acc := Float.max !acc (best (i + 1) w (value +. (float_of_int c *. it.Spp_pack.Knapsack.value)))
          done;
          !acc
        end
      in
      let opt = Float.max 0.0 (best 0 0 0.0) in
      feasible && Float.abs (v -. opt) < 1e-9 && Float.abs (!got -. v) < 1e-9)

(* ------------------------------------------------------------------ *)
(* Sleator *)

let test_sleator_wide_stack () =
  (* Two wide rects must stack; a narrow one starts the first level above. *)
  let rs = [ rect 0 3 4 1 1; rect 1 2 3 1 2; rect 2 1 4 1 1 ] in
  let p = Spp_pack.Sleator.pack rs in
  Alcotest.(check bool) "valid" true (Placement.is_valid p);
  (match Placement.find p ~id:2 with
   | Some it -> Alcotest.(check string) "narrow above stack" "3/2" (Q.to_string it.pos.Placement.y)
   | None -> Alcotest.fail "missing");
  Alcotest.(check string) "height" "5/2" (Q.to_string (Placement.height p))

let test_sleator_two_halves () =
  (* After the first level, halves are filled lowest-first. Four 1/2-wide
     unit squares: level [0,1) holds two, then one per half at y=1: h=2. *)
  let rs = List.init 6 (fun i -> rect i 1 2 1 1) in
  let p = Spp_pack.Sleator.pack rs in
  Alcotest.(check bool) "valid" true (Placement.is_valid p);
  Alcotest.(check string) "height 3" "3" (Q.to_string (Placement.height p))

let prop_sleator_valid =
  QCheck.Test.make ~name:"Sleator packings are valid and complete" ~count:300 rects_gen
    (fun rs ->
      let p = Spp_pack.Sleator.pack rs in
      Placement.is_valid p && Placement.size p = List.length rs)

let prop_sleator_subroutine_property =
  (* The property DC needs from its subroutine A; implied by Sleator's
     2.5-approximation analysis. *)
  QCheck.Test.make ~name:"Sleator <= 2*AREA + h_max" ~count:300 rects_gen (fun rs ->
      let bound = Q.add (Q.mul_int (Rect.total_area rs) 2) (Rect.max_height rs) in
      Q.compare (Spp_pack.Sleator.height rs) bound <= 0)

(* ------------------------------------------------------------------ *)
(* Online shelf algorithms *)

let test_shelf_online_classes () =
  let t = Spp_pack.Shelf_online.create ~r:Q.two in
  (* Heights 1, 3/4, 1/2 -> classes r^0, r^0, r^-1. *)
  let p1 = Spp_pack.Shelf_online.insert t (rect 0 1 4 1 1) in
  let p2 = Spp_pack.Shelf_online.insert t (rect 1 1 4 3 4) in
  let p3 = Spp_pack.Shelf_online.insert t (rect 2 1 4 1 2) in
  Alcotest.(check string) "same shelf y" (Q.to_string p1.Placement.y) (Q.to_string p2.Placement.y);
  Alcotest.(check string) "second beside first" "1/4" (Q.to_string p2.Placement.x);
  Alcotest.(check string) "new class above" "1" (Q.to_string p3.Placement.y);
  (* Shelf for class 0 has height r^0 = 1; class -1 shelf height 1/2. *)
  Alcotest.(check string) "total height" "3/2" (Q.to_string (Spp_pack.Shelf_online.height t))

let test_shelf_online_next_vs_first () =
  (* Arrival order chosen so next-fit closes a shelf that first-fit reuses:
     w = 0.6, 0.7, 0.35 with equal heights — the 0.35 fits neither the
     newest shelf (0.7) nor, for next-fit, any older one. *)
  let rs = [ rect 0 3 5 1 1; rect 1 7 10 1 1; rect 2 7 20 1 1 ] in
  let nf = Placement.height (Spp_pack.Shelf_online.next_fit ~r:Q.two rs) in
  let ff = Placement.height (Spp_pack.Shelf_online.first_fit ~r:Q.two rs) in
  Alcotest.(check string) "next fit" "3" (Q.to_string nf);
  Alcotest.(check string) "first fit" "2" (Q.to_string ff)

let test_shelf_online_bad_r () =
  Alcotest.check_raises "r = 1 rejected" (Invalid_argument "Shelf_online.create: r must be > 1")
    (fun () -> ignore (Spp_pack.Shelf_online.create ~r:Q.one))

let prop_shelf_online_valid =
  QCheck.Test.make ~name:"online shelf packings are valid (both modes, r in {3/2, 2})" ~count:200
    rects_gen (fun rs ->
      List.for_all
        (fun r ->
          List.for_all
            (fun alg ->
              let p = alg ~r rs in
              Placement.is_valid p && Placement.size p = List.length rs)
            [ Spp_pack.Shelf_online.next_fit; Spp_pack.Shelf_online.first_fit ])
        [ q 3 2; Q.two ])

let prop_shelf_online_never_better_than_offline_bound =
  (* Online must pay something: it is never better than the height of the
     tallest rect, and shelf rounding wastes at most a factor r in height
     classes — sanity-check height <= r * (2*AREA + h_max) for r = 2. *)
  QCheck.Test.make ~name:"online shelf height within r*(2*AREA + h_max)" ~count:200 rects_gen
    (fun rs ->
      let p = Spp_pack.Shelf_online.first_fit ~r:Q.two rs in
      let bound = Q.mul Q.two (Q.add (Q.mul_int (Rect.total_area rs) 2) (Rect.max_height rs)) in
      Q.compare (Placement.height p) bound <= 0)

(* ------------------------------------------------------------------ *)
(* Bottom-left *)

let prop_bottom_left_valid =
  QCheck.Test.make ~name:"bottom-left packings are valid" ~count:200 rects_gen (fun rs ->
      let p = Bottom_left.pack rs in
      Placement.is_valid p && Placement.size p = List.length rs)

let test_bottom_left_backfills () =
  (* Placement order (height desc) is 0 (h=2), 2 (h=3/2), 1 (h=1): the
     narrow rect 2 drops into the ground-level gap beside rect 0 before the
     full-width rect 1 seals the contour. *)
  let rs = [ rect 0 1 2 2 1; rect 1 1 1 1 1; rect 2 1 4 3 2 ] in
  let p = Bottom_left.pack rs in
  (match Placement.find p ~id:2 with
   | Some it ->
     Alcotest.(check string) "backfilled x" "1/2" (Q.to_string it.pos.Placement.x);
     Alcotest.(check string) "backfilled y" "0" (Q.to_string it.pos.Placement.y)
   | None -> Alcotest.fail "missing rect");
  Alcotest.(check bool) "valid" true (Placement.is_valid p)

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "spp_pack"
    [
      ( "level",
        Alcotest.test_case "nfdh simple" `Quick test_nfdh_simple
        :: Alcotest.test_case "nfdh vs ffdh" `Quick test_nfdh_closes_level
        :: Alcotest.test_case "bfdh best fit" `Quick test_bfdh_prefers_fullest
        :: Alcotest.test_case "empty input" `Quick test_level_empty
        :: Alcotest.test_case "nfdh many levels" `Quick test_nfdh_many_levels
        :: qt
             [
               prop_level_algorithms_valid;
               prop_nfdh_matches_reference;
               prop_nfdh_area_bound;
               prop_ffdh_not_worse_than_nfdh;
               prop_level_height_at_least_area;
             ] );
      ( "binpack",
        Alcotest.test_case "next fit" `Quick test_binpack_next_fit
        :: Alcotest.test_case "first fit backfills" `Quick test_binpack_first_fit_backfills
        :: Alcotest.test_case "ffd" `Quick test_binpack_ffd
        :: Alcotest.test_case "best fit" `Quick test_binpack_best_fit
        :: Alcotest.test_case "harmonic" `Quick test_binpack_harmonic
        :: Alcotest.test_case "rejects bad size" `Quick test_binpack_rejects_bad_size
        :: qt [ prop_binpack_bins_respect_capacity; prop_ffd_within_2x_lower_bound ] );
      ( "knapsack",
        Alcotest.test_case "basic" `Quick test_knapsack_basic
        :: Alcotest.test_case "bounded copies" `Quick test_knapsack_bounded_copies
        :: Alcotest.test_case "edges" `Quick test_knapsack_edges
        :: qt [ prop_knapsack_vs_bruteforce ] );
      ( "sleator",
        Alcotest.test_case "wide stack" `Quick test_sleator_wide_stack
        :: Alcotest.test_case "two halves" `Quick test_sleator_two_halves
        :: qt [ prop_sleator_valid; prop_sleator_subroutine_property ] );
      ( "shelf-online",
        Alcotest.test_case "height classes" `Quick test_shelf_online_classes
        :: Alcotest.test_case "next vs first fit" `Quick test_shelf_online_next_vs_first
        :: Alcotest.test_case "bad r" `Quick test_shelf_online_bad_r
        :: qt [ prop_shelf_online_valid; prop_shelf_online_never_better_than_offline_bound ] );
      ( "bottom-left",
        Alcotest.test_case "backfills gaps" `Quick test_bottom_left_backfills
        :: qt [ prop_bottom_left_valid ] );
    ]
