(* Tests for Spp_geom: rectangle constructors, placement validation (the
   trusted oracle for everything else), skyline invariants, rendering. *)

module Q = Spp_num.Rat
module Rect = Spp_geom.Rect
module Placement = Spp_geom.Placement
module Skyline = Spp_geom.Skyline
module Render = Spp_geom.Render

let q = Q.of_ints
let rect id w_n w_d h_n h_d = Rect.make ~id ~w:(q w_n w_d) ~h:(q h_n h_d)
let pos x y = { Placement.x; y }
let item r p = { Placement.rect = r; pos = p }

(* ------------------------------------------------------------------ *)
(* Rect *)

let test_rect_make_validation () =
  Alcotest.check_raises "zero width" (Invalid_argument "Rect.make: width 0 outside (0, 1]")
    (fun () -> ignore (Rect.make ~id:0 ~w:Q.zero ~h:Q.one));
  Alcotest.check_raises "wide" (Invalid_argument "Rect.make: width 2 outside (0, 1]") (fun () ->
      ignore (Rect.make ~id:0 ~w:Q.two ~h:Q.one));
  Alcotest.check_raises "flat" (Invalid_argument "Rect.make: height 0 must be positive")
    (fun () -> ignore (Rect.make ~id:0 ~w:Q.one ~h:Q.zero));
  let r = rect 3 1 2 3 4 in
  Alcotest.(check string) "area" "3/8" (Q.to_string (Rect.area r))

let test_rect_aggregates () =
  let rs = [ rect 0 1 2 1 1; rect 1 1 4 2 1; rect 2 1 1 1 2 ] in
  Alcotest.(check string) "total area" "3/2" (Q.to_string (Rect.total_area rs));
  Alcotest.(check string) "max height" "2" (Q.to_string (Rect.max_height rs));
  Alcotest.(check string) "max height empty" "0" (Q.to_string (Rect.max_height []))

let test_rect_sorts () =
  let rs = [ rect 0 1 2 1 2; rect 1 1 4 2 1; rect 2 1 1 1 2 ] in
  let by_h = List.map (fun (r : Rect.t) -> r.Rect.id) (Rect.sort_by_height_desc rs) in
  Alcotest.(check (list int)) "height desc, id tiebreak" [ 1; 0; 2 ] by_h;
  let by_w = List.map (fun (r : Rect.t) -> r.Rect.id) (Rect.sort_by_width_desc rs) in
  Alcotest.(check (list int)) "width desc" [ 2; 0; 1 ] by_w

(* ------------------------------------------------------------------ *)
(* Placement *)

(* The sweep behind [Placement.check] must return the pairwise
   reference's list exactly, order included. *)
let same_as_reference label p =
  let show vs = List.map (Format.asprintf "%a" Placement.pp_violation) vs in
  Alcotest.(check (list string)) label (show (Placement.Reference.check p)) (show (Placement.check p))

let test_placement_basics () =
  let p = Placement.of_items [ item (rect 0 1 2 1 1) (pos Q.zero Q.zero) ] in
  Alcotest.(check int) "size" 1 (Placement.size p);
  Alcotest.(check string) "height" "1" (Q.to_string (Placement.height p));
  Alcotest.(check bool) "find hit" true (Placement.find p ~id:0 <> None);
  Alcotest.(check bool) "find miss" true (Placement.find p ~id:9 = None);
  Alcotest.check_raises "duplicate ids"
    (Invalid_argument "Placement.of_items: duplicate rect id 0") (fun () ->
      ignore (Placement.of_items [ item (rect 0 1 2 1 1) (pos Q.zero Q.zero);
                                   item (rect 0 1 2 1 1) (pos Q.zero Q.one) ]))

let test_placement_overlap_detection () =
  let a = item (rect 0 1 2 1 1) (pos Q.zero Q.zero) in
  let b_overlapping = item (rect 1 1 2 1 1) (pos (q 1 4) (q 1 2)) in
  let p = Placement.of_items [ a; b_overlapping ] in
  (match Placement.check p with
   | [ Placement.Overlap (0, 1) ] -> ()
   | other ->
     Alcotest.failf "expected one overlap, got %d violations" (List.length other));
  same_as_reference "overlap" p;
  (* Edge contact is not an overlap: in x, in y, or at a corner. *)
  List.iter
    (fun (label, b) ->
      let p = Placement.of_items [ a; b ] in
      Alcotest.(check bool) label true (Placement.is_valid p);
      same_as_reference label p)
    [ ("side by side ok", item (rect 1 1 2 1 1) (pos (q 1 2) Q.zero));
      ("stacked ok", item (rect 1 1 2 1 1) (pos Q.zero Q.one));
      ("corner ok", item (rect 1 1 2 1 1) (pos (q 1 2) Q.one)) ]

let test_placement_out_of_strip () =
  let too_right = item (rect 0 3 4 1 1) (pos (q 1 2) Q.zero) in
  (match Placement.check (Placement.of_items [ too_right ]) with
   | [ Placement.Out_of_strip 0 ] -> ()
   | _ -> Alcotest.fail "expected out-of-strip");
  let below = item (rect 1 1 2 1 1) (pos Q.zero (q (-1) 2)) in
  (match Placement.check (Placement.of_items [ below ]) with
   | [ Placement.Out_of_strip 1 ] -> ()
   | _ -> Alcotest.fail "expected out-of-strip below");
  (* Both out of the strip and overlapping each other: strip violations
     first, then the pair. *)
  let p = Placement.of_items [ too_right; { below with Placement.pos = pos (q 1 4) (q (-1) 2) } ] in
  Alcotest.(check bool) "strip, then overlap" true
    (Placement.check p
     = [ Placement.Out_of_strip 0; Placement.Out_of_strip 1; Placement.Overlap (0, 1) ]);
  same_as_reference "out of strip" p

let test_sweep_equal_bottoms () =
  let a = item (rect 0 1 2 1 1) (pos Q.zero (q 1 2)) in
  let side = item (rect 1 1 2 1 1) (pos (q 1 2) (q 1 2)) in
  let over = item (rect 2 1 2 1 2) (pos (q 1 4) (q 1 2)) in
  let p = Placement.of_items [ a; side; over ] in
  Alcotest.(check bool) "both neighbours overlap the third" true
    (Placement.check p = [ Placement.Overlap (0, 2); Placement.Overlap (1, 2) ]);
  same_as_reference "equal bottoms" p

let test_sweep_bottom_on_top () =
  (* 1 sits on 0's top and is not an overlap; 2 spans the seam and hits
     both. Listed top first, so the sweep's order is not the item order. *)
  let p =
    Placement.of_items
      [ item (rect 1 1 1 1 1) (pos Q.zero Q.one);
        item (rect 0 1 1 1 1) (pos Q.zero Q.zero);
        item (rect 2 1 4 1 1) (pos (q 1 2) (q 1 2)) ]
  in
  Alcotest.(check bool) "seam overlaps only" true
    (Placement.check p = [ Placement.Overlap (1, 2); Placement.Overlap (0, 2) ]);
  same_as_reference "bottom on top" p

let test_sweep_pile () =
  (* 64 rectangles at y = 0, ids counting down: all 2016 pairs, ordered by
     item position as the pairwise loop visits them. *)
  let n = 64 in
  let p =
    Placement.of_items (List.init n (fun k -> item (rect (n - 1 - k) 1 2 1 1) (pos Q.zero Q.zero)))
  in
  let expected =
    List.concat
      (List.init n (fun i ->
           List.init (n - 1 - i) (fun d -> Placement.Overlap (n - 1 - i, n - 2 - i - d))))
  in
  let got = Placement.check p in
  Alcotest.(check int) "pair count" 2016 (List.length got);
  Alcotest.(check bool) "reference order" true (got = expected);
  same_as_reference "pile" p;
  (* A staircase listed top down: each step overlaps the next one only. *)
  let stairs =
    Placement.of_items
      (List.init n (fun k -> item (rect k 1 2 2 1) (pos Q.zero (Q.of_int (n - 1 - k)))))
  in
  Alcotest.(check int) "stair pairs" (n - 1) (List.length (Placement.check stairs));
  same_as_reference "staircase" stairs

(* Placements no integer grid can hold run on rationals with the
   reference's result: x over two primes near 2^32 (their lcm passes a
   native int), y times p/(p+1) for p = 2^61 - 1 (past 2^60), and a zero
   height, where the sweep's candidates need not meet in y. *)
let test_placement_past_the_grid () =
  let p32 = 4294967291 and p32' = 4294967279 and p61 = (1 lsl 61) - 1 in
  let big = q p61 (p61 + 1) in
  let tall id = Rect.make ~id ~w:(q 1 2) ~h:big in
  let flat = { Rect.id = 1; w = q 1 2; h = Q.zero } in
  List.iter
    (fun (label, items) ->
      let p = Placement.of_items items in
      Alcotest.(check bool) (label ^ ": off the grid") false (Placement.on_grid p);
      Alcotest.(check bool) (label ^ ": a violation") true (Placement.check p <> []);
      same_as_reference label p)
    [ ( "lcm past max_int",
        [ item (rect 0 1 p32 1 1) (pos Q.zero Q.zero); item (rect 1 1 p32' 1 1) (pos Q.zero (q 1 2));
          item (rect 2 1 2 1 1) (pos (Q.sub Q.one (q 1 p32)) Q.zero) ] );
      ("values past 2^60", [ item (tall 0) (pos Q.zero Q.zero); item (tall 1) (pos (q 1 4) (Q.div big Q.two)) ]);
      ( "zero height",
        [ item (rect 0 1 2 1 1) (pos Q.zero Q.zero); item flat (pos Q.zero Q.zero);
          item (rect 2 1 2 1 1) (pos (q 3 4) Q.one) ] ) ];
  Alcotest.(check bool) "eighths and quarters: on the grid" true
    (Placement.on_grid (Placement.of_items [ item (rect 0 1 8 3 4) (pos (q 7 8) (q 5 4)) ]))

let prop_sweep_matches_reference =
  QCheck.Test.make ~name:"sweep check equals the pairwise reference" ~count:500
    QCheck.(
      list_of_size Gen.(int_range 0 24)
        (quad (int_range (-1) 4) (int_range (-1) 6) (int_range 1 4) (int_range 1 3)))
    (fun specs ->
      let p =
        Placement.of_items
          (List.mapi
             (fun i (xn, yn, wn, hn) -> item (rect i wn 4 hn 2) (pos (q xn 4) (q yn 2)))
             specs)
      in
      Placement.check p = Placement.Reference.check p)

let test_placement_shift_union () =
  let a = Placement.of_items [ item (rect 0 1 2 1 1) (pos Q.zero Q.zero) ] in
  let b = Placement.of_items [ item (rect 1 1 1 1 2) (pos Q.zero Q.zero) ] in
  let b' = Placement.shift_y b Q.one in
  let u = Placement.union a b' in
  Alcotest.(check bool) "union valid" true (Placement.is_valid u);
  Alcotest.(check string) "union height" "3/2" (Q.to_string (Placement.height u));
  Alcotest.check_raises "shift below base"
    (Invalid_argument "Placement.shift_y: rectangle below base") (fun () ->
      ignore (Placement.shift_y a Q.minus_one));
  Alcotest.check_raises "union id clash"
    (Invalid_argument "Placement.of_items: duplicate rect id 0") (fun () ->
      ignore (Placement.union a a))

(* ------------------------------------------------------------------ *)
(* Skyline *)

let test_skyline_ground_floor () =
  let s = Skyline.create () in
  let p1 = Skyline.place s ~w:(q 1 2) ~h:Q.one ~y_min:Q.zero in
  Alcotest.(check string) "first at origin x" "0" (Q.to_string p1.Placement.x);
  Alcotest.(check string) "first at origin y" "0" (Q.to_string p1.Placement.y);
  let p2 = Skyline.place s ~w:(q 1 2) ~h:Q.one ~y_min:Q.zero in
  Alcotest.(check string) "second beside x" "1/2" (Q.to_string p2.Placement.x);
  Alcotest.(check string) "second beside y" "0" (Q.to_string p2.Placement.y);
  let p3 = Skyline.place s ~w:Q.one ~h:Q.one ~y_min:Q.zero in
  Alcotest.(check string) "third on top" "1" (Q.to_string p3.Placement.y);
  Alcotest.(check string) "skyline height" "2" (Q.to_string (Skyline.height s))

let test_skyline_fills_valley () =
  let s = Skyline.create () in
  (* Build two towers leaving a valley in the middle. *)
  let _ = Skyline.place s ~w:(q 1 4) ~h:Q.two ~y_min:Q.zero in
  let _ = Skyline.place s ~w:(q 1 4) ~h:Q.one ~y_min:Q.zero in
  let _ = Skyline.place s ~w:(q 1 4) ~h:Q.one ~y_min:Q.zero in
  let _ = Skyline.place s ~w:(q 1 4) ~h:Q.two ~y_min:Q.zero in
  (* Valley is [1/4, 3/4] at height 1; a 1/2-wide rect should land there. *)
  let p = Skyline.place s ~w:(q 1 2) ~h:Q.one ~y_min:Q.zero in
  Alcotest.(check string) "valley x" "1/4" (Q.to_string p.Placement.x);
  Alcotest.(check string) "valley y" "1" (Q.to_string p.Placement.y)

let test_skyline_y_min () =
  let s = Skyline.create () in
  let p = Skyline.place s ~w:Q.one ~h:Q.one ~y_min:(q 5 2) in
  Alcotest.(check string) "respects floor" "5/2" (Q.to_string p.Placement.y);
  Alcotest.check_raises "too wide" (Invalid_argument "Skyline.place: rect wider than strip")
    (fun () -> ignore (Skyline.place s ~w:Q.two ~h:Q.one ~y_min:Q.zero))

let test_skyline_copy_independent () =
  let s = Skyline.create () in
  let _ = Skyline.place s ~w:(q 1 2) ~h:Q.one ~y_min:Q.zero in
  let snap = Skyline.copy s in
  let _ = Skyline.place s ~w:Q.one ~h:Q.one ~y_min:Q.zero in
  Alcotest.(check string) "copy unaffected" "1" (Q.to_string (Skyline.height snap));
  Alcotest.(check string) "original advanced" "2" (Q.to_string (Skyline.height s))

let test_skyline_segments_invariant () =
  let s = Skyline.create () in
  List.iter
    (fun (wn, wd, hn, hd) -> ignore (Skyline.place s ~w:(q wn wd) ~h:(q hn hd) ~y_min:Q.zero))
    [ (1, 3, 1, 1); (1, 2, 2, 1); (1, 4, 1, 2); (2, 3, 1, 1) ];
  let segs = Skyline.segments s in
  let total = List.fold_left (fun acc (_, w, _) -> Q.add acc w) Q.zero segs in
  Alcotest.(check string) "segments cover strip" "1" (Q.to_string total);
  let rec contiguous = function
    | (x, w, _) :: ((x', _, _) :: _ as rest) ->
      Q.equal (Q.add x w) x' && contiguous rest
    | _ -> true
  in
  Alcotest.(check bool) "segments contiguous" true (contiguous segs)

(* Property: random skyline packs are always geometrically valid. *)
let prop_skyline_packs_validly =
  QCheck.Test.make ~name:"skyline packings are valid" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 30) (pair (int_range 1 8) (int_range 1 8)))
    (fun specs ->
      let s = Skyline.create () in
      let items =
        List.mapi
          (fun i (wn, hn) ->
            let r = Rect.make ~id:i ~w:(q wn 8) ~h:(q hn 4) in
            let p = Skyline.place s ~w:r.Rect.w ~h:r.Rect.h ~y_min:Q.zero in
            item r p)
          specs
      in
      Placement.is_valid (Placement.of_items items))

(* Property: the integer contour places like the rational one. Widths are
   multiples of 1/d, heights and floors multiples of 1/e, so x scaled by d
   and y by e are integers. A sequence is placed level by level, then a
   second one branches off at a random level of the first, as the order
   search does when it backtracks; after every placement the positions
   and the contours must agree. *)
let prop_skyline_int_matches_rational =
  let spec = QCheck.(triple small_nat small_nat small_nat) in
  QCheck.Test.make ~name:"integer skyline places like the rational one" ~count:500
    QCheck.(
      pair
        (pair (int_range 1 16) (int_range 1 8))
        (triple (list_of_size Gen.(int_range 1 10) spec) small_nat
           (list_of_size Gen.(int_range 0 10) spec)))
    (fun ((d, e), (first, branch, second)) ->
      let levels = 10 in
      let isky = Skyline.Int.create ~width:d ~levels in
      let dims (a, b, c) =
        (1 + (a mod d), 1 + (b mod (3 * e)), if c mod 2 = 0 then 0 else c mod (4 * e))
      in
      let same sky level (w, h, y_min) =
        let p = Skyline.place sky ~w:(q w d) ~h:(q h e) ~y_min:(q y_min e) in
        Skyline.Int.place isky ~level ~w ~h ~y_min;
        let scaled = Skyline.Int.segments isky ~level:(level + 1) in
        let segs = Skyline.segments sky in
        Q.equal p.Placement.x (q (Skyline.Int.x isky ~level) d)
        && Q.equal p.Placement.y (q (Skyline.Int.y isky ~level) e)
        && List.length scaled = List.length segs
        && List.for_all2
             (fun (x, w, y) (x', w', y') ->
               Q.equal (q x d) x' && Q.equal (q w d) w' && Q.equal (q y e) y')
             scaled segs
      in
      let sky = Skyline.create () in
      let snapshots = Array.make (levels + 1) (Skyline.copy sky) in
      let first_ok =
        List.for_all Fun.id
          (List.mapi
             (fun level s ->
               let ok = same sky level (dims s) in
               snapshots.(level + 1) <- Skyline.copy sky;
               ok)
             first)
      in
      let j = branch mod (List.length first + 1) in
      let sky = snapshots.(j) in
      first_ok
      && List.for_all Fun.id
           (List.mapi (fun k s -> same sky (j + k) (dims s))
              (List.filteri (fun k _ -> j + k < levels) second)))

(* ------------------------------------------------------------------ *)
(* Render *)

let test_render_empty () = Alcotest.(check string) "empty" "" (Render.render (Placement.of_items []))

let test_render_shape () =
  let p =
    Placement.of_items
      [ item (rect 0 1 1 1 1) (pos Q.zero Q.zero); item (rect 1 1 2 1 1) (pos Q.zero Q.one) ]
  in
  let out = Render.render ~cols:8 p in
  Alcotest.(check bool) "non-empty" true (String.length out > 0);
  Alcotest.(check bool) "has border" true (String.contains out '+');
  Alcotest.(check bool) "draws A" true (String.contains out 'A');
  Alcotest.(check bool) "draws B" true (String.contains out 'B')

(* ------------------------------------------------------------------ *)
(* SVG *)

let count_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i acc =
    if i + nn > nh then acc
    else if String.sub hay i nn = needle then go (i + 1) (acc + 1)
    else go (i + 1) acc
  in
  if nn = 0 then 0 else go 0 0

let test_svg_structure () =
  let p =
    Placement.of_items
      [ item (rect 0 1 2 1 1) (pos Q.zero Q.zero); item (rect 1 1 2 1 1) (pos (q 1 2) Q.zero) ]
  in
  let svg = Spp_geom.Svg.render ~width_px:100 p in
  Alcotest.(check bool) "opens svg" true (String.length svg > 5 && String.sub svg 0 4 = "<svg");
  (* Frame + 2 rect elements. *)
  Alcotest.(check int) "rect elements" 3 (count_substring svg "<rect ");
  Alcotest.(check int) "labels" 2 (count_substring svg "<text ");
  Alcotest.(check int) "closes" 1 (count_substring svg "</svg>")

let test_svg_empty_and_no_labels () =
  let empty = Spp_geom.Svg.render (Placement.of_items []) in
  Alcotest.(check int) "frame only" 1 (count_substring empty "<rect ");
  let p = Placement.of_items [ item (rect 0 1 1 1 1) (pos Q.zero Q.zero) ] in
  let bare = Spp_geom.Svg.render ~label:false p in
  Alcotest.(check int) "no labels" 0 (count_substring bare "<text ")

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "spp_geom"
    [
      ( "rect",
        [
          Alcotest.test_case "make validation" `Quick test_rect_make_validation;
          Alcotest.test_case "aggregates" `Quick test_rect_aggregates;
          Alcotest.test_case "sorts" `Quick test_rect_sorts;
        ] );
      ( "placement",
        [
          Alcotest.test_case "basics" `Quick test_placement_basics;
          Alcotest.test_case "overlap detection" `Quick test_placement_overlap_detection;
          Alcotest.test_case "out of strip" `Quick test_placement_out_of_strip;
          Alcotest.test_case "shift and union" `Quick test_placement_shift_union;
          Alcotest.test_case "sweep: equal bottoms" `Quick test_sweep_equal_bottoms;
          Alcotest.test_case "sweep: bottom on a top" `Quick test_sweep_bottom_on_top;
          Alcotest.test_case "sweep: pile of 64" `Quick test_sweep_pile;
          Alcotest.test_case "past the grids" `Quick test_placement_past_the_grid;
        ]
        @ qt [ prop_sweep_matches_reference ] );
      ( "skyline",
        Alcotest.test_case "ground floor" `Quick test_skyline_ground_floor
        :: Alcotest.test_case "fills valley" `Quick test_skyline_fills_valley
        :: Alcotest.test_case "y_min floor" `Quick test_skyline_y_min
        :: Alcotest.test_case "copy independence" `Quick test_skyline_copy_independent
        :: Alcotest.test_case "segments invariant" `Quick test_skyline_segments_invariant
        :: qt [ prop_skyline_packs_validly; prop_skyline_int_matches_rational ] );
      ( "render",
        [
          Alcotest.test_case "empty" `Quick test_render_empty;
          Alcotest.test_case "shape" `Quick test_render_shape;
        ] );
      ( "svg",
        [
          Alcotest.test_case "structure" `Quick test_svg_structure;
          Alcotest.test_case "empty / no labels" `Quick test_svg_empty_and_no_labels;
        ] );
    ]
