(* Tests for Spp_core: instances, lower bounds, the validators, DC
   (Theorem 2.3), the uniform-height algorithms (Theorem 2.6 / Lemma 2.5),
   the APTAS reductions (Lemmas 3.1-3.2), the configuration LP (Lemma 3.3),
   and the end-to-end APTAS accounting (Lemma 3.4 / Theorem 3.5). *)

module Q = Spp_num.Rat
module Rect = Spp_geom.Rect
module Placement = Spp_geom.Placement
module Dag = Spp_dag.Dag
module I = Spp_core.Instance
module LB = Spp_core.Lower_bounds
module Validate = Spp_core.Validate
module Dc = Spp_core.Dc
module Uniform = Spp_core.Uniform
module List_schedule = Spp_core.List_schedule
module Grouping = Spp_core.Grouping
module Config_lp = Spp_core.Config_lp
module Aptas = Spp_core.Aptas

let q = Q.of_ints
let rect id wn wd hn hd = Rect.make ~id ~w:(q wn wd) ~h:(q hn hd)

let prec rects edges =
  I.Prec.make rects (Dag.of_edges ~nodes:(List.map (fun (r : Rect.t) -> r.Rect.id) rects) ~edges)

(* A diamond instance used throughout: 0 -> {1,2} -> 3, assorted sizes. *)
let diamond_inst () =
  prec
    [ rect 0 1 2 1 1; rect 1 1 4 2 1; rect 2 1 2 1 2; rect 3 1 1 1 1 ]
    [ (0, 1); (0, 2); (1, 3); (2, 3) ]

(* Random precedence instances: lower-triangular random edges, quantised
   dims. *)
let prec_gen =
  QCheck.make
    ~print:(fun (inst : I.Prec.t) -> Printf.sprintf "n=%d" (I.Prec.size inst))
    QCheck.Gen.(
      let* n = int_range 1 24 in
      let* specs = list_repeat n (pair (int_range 1 8) (int_range 1 8)) in
      let rects = List.mapi (fun i (wn, hn) -> Rect.make ~id:i ~w:(q wn 8) ~h:(q hn 4)) specs in
      let all = List.concat (List.init n (fun i -> List.init i (fun j -> (j, i)))) in
      let* keep = list_repeat (List.length all) (frequency [ (3, return false); (1, return true) ]) in
      let edges = List.filteri (fun idx _ -> List.nth keep idx) all in
      return (prec rects edges))

let uniform_gen =
  QCheck.make
    ~print:(fun (inst : I.Prec.t) -> Printf.sprintf "n=%d" (I.Prec.size inst))
    QCheck.Gen.(
      let* n = int_range 1 20 in
      let* widths = list_repeat n (int_range 1 8) in
      let rects = List.mapi (fun i wn -> Rect.make ~id:i ~w:(q wn 8) ~h:Q.one) widths in
      let all = List.concat (List.init n (fun i -> List.init i (fun j -> (j, i)))) in
      let* keep = list_repeat (List.length all) (frequency [ (3, return false); (1, return true) ]) in
      let edges = List.filteri (fun idx _ -> List.nth keep idx) all in
      return (prec rects edges))

(* ------------------------------------------------------------------ *)
(* Instances *)

let test_prec_instance_validation () =
  Alcotest.check_raises "node mismatch"
    (Invalid_argument "Prec.make: DAG nodes must be exactly the rect ids") (fun () ->
      ignore (I.Prec.make [ rect 0 1 2 1 1 ] (Dag.of_edges ~nodes:[ 0; 1 ] ~edges:[])));
  let inst = diamond_inst () in
  Alcotest.(check int) "size" 4 (I.Prec.size inst);
  Alcotest.(check string) "height_of" "2" (Q.to_string (I.Prec.height_of inst 1));
  let sub = I.Prec.induced inst (fun id -> id <> 0) in
  Alcotest.(check int) "induced size" 3 (I.Prec.size sub);
  Alcotest.(check int) "induced edges" 2 (Dag.num_edges sub.dag)

let test_release_instance_validation () =
  let mk h w rel = { I.Release.rect = Rect.make ~id:0 ~w ~h; release = rel } in
  Alcotest.check_raises "height cap" (Invalid_argument "Release.make: rect 0 height exceeds 1")
    (fun () -> ignore (I.Release.make ~k:4 [ mk Q.two Q.one Q.zero ]));
  Alcotest.check_raises "width floor" (Invalid_argument "Release.make: rect 0 narrower than 1/K")
    (fun () -> ignore (I.Release.make ~k:4 [ mk Q.one (q 1 8) Q.zero ]));
  Alcotest.check_raises "negative release"
    (Invalid_argument "Release.make: rect 0 has negative release") (fun () ->
      ignore (I.Release.make ~k:4 [ mk Q.one Q.one Q.minus_one ]));
  let inst = I.Release.make ~k:4 [ mk Q.one (q 1 2) (q 3 2) ] in
  Alcotest.(check string) "release lookup" "3/2" (Q.to_string (I.Release.release inst 0));
  Alcotest.(check string) "max release" "3/2" (Q.to_string (I.Release.max_release inst))

(* ------------------------------------------------------------------ *)
(* Lower bounds *)

let test_lower_bounds_diamond () =
  let inst = diamond_inst () in
  (* AREA = 1/2 + 1/2 + 1/4 + 1 = 9/4. F: F0=1, F1=3, F2=3/2, F3=4. *)
  Alcotest.(check string) "area" "9/4" (Q.to_string (LB.area inst));
  Alcotest.(check string) "F(1)" "3" (Q.to_string (LB.f_of inst 1));
  Alcotest.(check string) "F(3)" "4" (Q.to_string (LB.f_of inst 3));
  Alcotest.(check string) "critical path" "4" (Q.to_string (LB.critical_path inst));
  Alcotest.(check string) "prec bound" "4" (Q.to_string (LB.prec inst))

let test_lower_bounds_release () =
  let inst =
    I.Release.make ~k:2
      [
        { I.Release.rect = rect 0 1 2 1 1; release = Q.zero };
        { I.Release.rect = rect 1 1 1 1 2; release = q 5 1 };
      ]
  in
  (* max(r + h) = 5 + 1/2; area = 1. *)
  Alcotest.(check string) "release bound" "11/2" (Q.to_string (LB.release inst))

(* ------------------------------------------------------------------ *)
(* Validators (failure injection) *)

let test_validate_catches_violations () =
  let inst = prec [ rect 0 1 2 1 1; rect 1 1 2 1 1 ] [ (0, 1) ] in
  let at id x y = { Placement.rect = I.Prec.rect inst id; pos = { Placement.x; y } } in
  (* Valid: 1 strictly above 0. *)
  let ok = Placement.of_items [ at 0 Q.zero Q.zero; at 1 Q.zero Q.one ] in
  Alcotest.(check bool) "valid placement accepted" true (Validate.is_valid_prec inst ok);
  (* Precedence violation: side by side. *)
  let side = Placement.of_items [ at 0 Q.zero Q.zero; at 1 (q 1 2) Q.zero ] in
  (match Validate.check_prec inst side with
   | [ Validate.Precedence (0, 1) ] -> ()
   | _ -> Alcotest.fail "expected precedence violation");
  (* Missing rect: either endpoint of the edge, one Missing_rect and no
     Precedence, as the reference reports. *)
  List.iter
    (fun (present, absent) ->
      let missing = Placement.of_items [ at present Q.zero Q.zero ] in
      (match Validate.check_prec inst missing with
       | [ Validate.Missing_rect id ] when id = absent -> ()
       | _ -> Alcotest.fail "expected missing rect");
      Alcotest.(check bool) "missing: same as reference" true
        (Validate.check_prec inst missing = Validate.Reference.check_prec inst missing))
    [ (0, 1); (1, 0) ];
  Alcotest.(check bool) "side: same as reference" true
    (Validate.check_prec inst side = Validate.Reference.check_prec inst side);
  (* Extra rect. *)
  let extra =
    Placement.of_items
      [ at 0 Q.zero Q.zero; at 1 Q.zero Q.one;
        { Placement.rect = rect 7 1 4 1 4; pos = { Placement.x = q 1 2; y = Q.zero } } ]
  in
  Alcotest.(check bool) "extra rejected" false (Validate.is_valid_prec inst extra);
  (* Dimension tampering. *)
  let tampered =
    Placement.of_items
      [ { Placement.rect = rect 0 1 4 1 1; pos = { Placement.x = Q.zero; y = Q.zero } };
        at 1 Q.zero Q.one ]
  in
  (match Validate.check_prec inst tampered with
   | [ Validate.Dimension_changed 0 ] -> ()
   | _ -> Alcotest.fail "expected dimension change")

let test_validate_release_violations () =
  let inst =
    I.Release.make ~k:2 [ { I.Release.rect = rect 0 1 2 1 1; release = Q.one } ]
  in
  let at y = Placement.of_items [ { Placement.rect = rect 0 1 2 1 1; pos = { Placement.x = Q.zero; y } } ] in
  Alcotest.(check bool) "on time" true (Validate.is_valid_release inst (at Q.one));
  (match Validate.check_release inst (at (q 1 2)) with
   | [ Validate.Release 0 ] -> ()
   | _ -> Alcotest.fail "expected release violation");
  Alcotest.(check bool) "same as reference" true
    (Validate.check_release inst (at (q 1 2)) = Validate.Reference.check_release inst (at (q 1 2)))

let extras (vs : Validate.violation list) =
  List.filter_map (function Validate.Extra_rect id -> Some id | _ -> None) vs

let test_validate_extras_in_placement_order () =
  (* Extras are reported in placement order, not by id or hash. *)
  let inst = prec [ rect 0 1 2 1 1; rect 1 1 2 1 1 ] [ (0, 1) ] in
  let at (r : Rect.t) x y = { Placement.rect = r; pos = { Placement.x; y } } in
  let ids = [ 40; 7; 23; 1000; 3 ] in
  let p =
    Placement.of_items
      (at (I.Prec.rect inst 0) Q.zero Q.zero
      :: at (I.Prec.rect inst 1) Q.zero Q.one
      :: List.mapi (fun k id -> at (rect id 1 2 1 1) (q 1 2) (Q.of_int k)) ids)
  in
  Alcotest.(check (list int)) "check_prec" ids (extras (Validate.check_prec inst p));
  Alcotest.(check (list int)) "reference" ids (extras (Validate.Reference.check_prec inst p));
  let rinst =
    I.Release.make ~k:2
      [ { I.Release.rect = I.Prec.rect inst 0; release = Q.zero };
        { I.Release.rect = I.Prec.rect inst 1; release = Q.zero } ]
  in
  Alcotest.(check (list int)) "check_release" ids (extras (Validate.check_release rinst p));
  Alcotest.(check (list int)) "release reference" ids (extras (Validate.Reference.check_release rinst p))

(* Inputs no integer grid can hold: two denominators whose lcm passes a
   native int (primes near 2^32), and values times p/(p+1), p = 2^61 - 1,
   past 2^60. Each runs on rationals and returns the reference's result. *)
let p32 = 4294967291
let p32' = 4294967279
let p61 = (1 lsl 61) - 1
let past_2_60 = q p61 (p61 + 1)

let taller factor (r : Rect.t) = Rect.make ~id:r.Rect.id ~w:r.Rect.w ~h:(Q.mul r.Rect.h factor)

let test_validate_past_the_grid () =
  let show vs = List.map (Format.asprintf "%a" Validate.pp_violation) vs in
  let same label got expect =
    Alcotest.(check (list string)) label (show expect) (show got);
    Alcotest.(check bool) (label ^ ": a violation") true (got <> [])
  in
  let at (r : Rect.t) x y = { Placement.rect = r; pos = { Placement.x; y } } in
  (* Side by side and overlapping, against the edge (0, 1). *)
  let lcm_inst =
    prec [ Rect.make ~id:0 ~w:(q 1 2) ~h:(q 1 p32); Rect.make ~id:1 ~w:(q 1 2) ~h:(q 1 p32') ] [ (0, 1) ]
  in
  let lcm_p =
    Placement.of_items [ at (I.Prec.rect lcm_inst 0) Q.zero Q.zero; at (I.Prec.rect lcm_inst 1) (q 1 4) Q.zero ]
  in
  let big_inst = I.Prec.make (List.map (taller past_2_60) (diamond_inst ()).rects) (diamond_inst ()).dag in
  let big_p =
    Placement.of_items
      (List.map (fun (r : Rect.t) -> at r Q.zero (q (r.Rect.id) 3)) big_inst.rects)
  in
  List.iter
    (fun (label, inst, p) ->
      Alcotest.(check bool) (label ^ ": off the grid") false (Placement.on_grid p);
      same label (Validate.check_prec inst p) (Validate.Reference.check_prec inst p))
    [ ("lcm past max_int", lcm_inst, lcm_p); ("values past 2^60", big_inst, big_p) ];
  (* Release times alone off the grid, and everything scaled. *)
  let release_inst rects releases =
    I.Release.make ~k:2 (List.map2 (fun rect release -> { I.Release.rect; release }) rects releases)
  in
  let two = [ rect 0 1 2 1 1; rect 1 1 2 1 2 ] in
  let lcm_r = release_inst two [ q 1 p32; q 1 p32' ] in
  let big_r = release_inst (List.map (taller past_2_60) two) [ Q.zero; past_2_60 ] in
  let at_zero inst =
    Placement.of_items (List.map (fun r -> at r Q.zero Q.zero) (I.Release.rects inst))
  in
  List.iter
    (fun (label, inst) ->
      let p = at_zero inst in
      Alcotest.(check bool) (label ^ ": off the grid") false (Validate.on_grid_release inst p);
      same label (Validate.check_release inst p) (Validate.Reference.check_release inst p))
    [ ("releases, lcm past max_int", lcm_r); ("releases, values past 2^60", big_r) ]

(* ------------------------------------------------------------------ *)
(* DC (Theorem 2.3) *)

let test_dc_single_rect () =
  let inst = prec [ rect 0 1 2 3 4 ] [] in
  let p, stats = Dc.pack inst in
  Alcotest.(check bool) "valid" true (Validate.is_valid_prec inst p);
  Alcotest.(check string) "height" "3/4" (Q.to_string (Placement.height p));
  Alcotest.(check int) "one mid call" 1 stats.Dc.mid_calls

let test_dc_empty () =
  let inst = prec [] [] in
  let p, _ = Dc.pack inst in
  Alcotest.(check int) "empty" 0 (Placement.size p)

let test_dc_chain_is_tight () =
  (* A pure chain forces serial placement; DC must achieve exactly F. *)
  let rects = List.init 6 (fun i -> rect i 1 2 1 1) in
  let edges = List.init 5 (fun i -> (i, i + 1)) in
  let inst = prec rects edges in
  let p, _ = Dc.pack inst in
  Alcotest.(check bool) "valid" true (Validate.is_valid_prec inst p);
  Alcotest.(check string) "height = F = 6" "6" (Q.to_string (Placement.height p))

let test_dc_diamond () =
  let inst = diamond_inst () in
  let p, _ = Dc.pack inst in
  Alcotest.(check bool) "valid" true (Validate.is_valid_prec inst p)

let test_dc_split_diamond () =
  (* Diamond: F0=1, F1=3, F2=3/2, F3=4; H=4, half=2.
     0: F=1 <= 2 -> bot. 1: F=3 > 2, F-h=1 <= 2 -> mid.
     2: F=3/2 <= 2 -> bot. 3: F=4 > 2, F-h=3 > 2 -> top. *)
  let bot, mid, top = Dc.split (diamond_inst ()) in
  Alcotest.(check (list int)) "bot" [ 0; 2 ] bot;
  Alcotest.(check (list int)) "mid" [ 1 ] mid;
  Alcotest.(check (list int)) "top" [ 3 ] top

let prop_dc_split_lemmas =
  (* Lemma 2.2: S_mid is non-empty; Lemma 2.1: S_mid is independent; and
     the three bands partition S. *)
  QCheck.Test.make ~name:"Lemmas 2.1/2.2: the DC split" ~count:200 prec_gen (fun inst ->
      let bot, mid, top = Dc.split inst in
      let all = List.sort compare (bot @ mid @ top) in
      mid <> []
      && all = List.sort compare (List.map (fun (r : Rect.t) -> r.Rect.id) inst.rects)
      && Dag.independent inst.dag (fun id -> List.mem id mid))

let prop_dc_valid =
  QCheck.Test.make ~name:"DC placements are valid" ~count:150 prec_gen (fun inst ->
      let p, _ = Dc.pack inst in
      Validate.check_prec inst p = [])

let prop_dc_induction_bound =
  (* The inequality actually proved in Theorem 2.3:
     DC(S) <= log2(n+1) * F(S) + 2 * AREA(S). *)
  QCheck.Test.make ~name:"DC satisfies the Theorem 2.3 induction bound" ~count:150 prec_gen
    (fun inst ->
      let h = Q.to_float (Dc.height inst) in
      h <= Dc.theorem_2_3_bound inst +. 1e-9)

let prop_dc_with_ffdh_subroutine =
  (* Any subroutine with the area property keeps DC valid; FFDH dominates
     NFDH so the bound still holds. *)
  QCheck.Test.make ~name:"DC with FFDH subroutine stays valid and bounded" ~count:100 prec_gen
    (fun inst ->
      let p, _ = Dc.pack ~subroutine:Spp_pack.Level.ffdh inst in
      Validate.check_prec inst p = []
      && Q.to_float (Placement.height p) <= Dc.theorem_2_3_bound inst +. 1e-9)

(* DC and F on index arrays against their References: every item
   (rectangle and position) in order, and the stats. *)
let item_view (it : Placement.item) =
  Printf.sprintf "%d %s %s at (%s, %s)" it.rect.Rect.id (Q.to_string it.rect.Rect.w)
    (Q.to_string it.rect.Rect.h) (Q.to_string it.pos.Placement.x) (Q.to_string it.pos.Placement.y)

let same_packing (p, s) (p', s') =
  List.map item_view (Placement.items p) = List.map item_view (Placement.items p') && s = s'

let check_same_packing label pp_stats (p, s) (p', s') =
  Alcotest.(check (list string)) (label ^ ": items") (List.map item_view (Placement.items p'))
    (List.map item_view (Placement.items p));
  Alcotest.(check string) (label ^ ": stats") (pp_stats s') (pp_stats s)

let dc_stats (s : Dc.stats) = Printf.sprintf "levels %d, mid calls %d" s.Dc.levels s.Dc.mid_calls

let check_dc_reference ?subroutine label inst =
  check_same_packing label dc_stats (Dc.pack ?subroutine inst) (Dc.Reference.pack ?subroutine inst)

let test_dc_matches_reference () =
  let rng = Spp_util.Prng.create 2024 in
  List.iter
    (fun (name, shape) ->
      check_dc_reference ("n = 1024 " ^ name)
        (Spp_workloads.Generators.random_prec rng ~n:1024 ~k:8 ~h_den:4 ~shape))
    [ ("layered", `Layered); ("series-parallel", `Series_parallel) ];
  let ids n = List.init n Fun.id in
  let unit_rects n = List.init n (fun i -> rect i 1 2 1 1) in
  check_dc_reference "2000-node chain"
    (I.Prec.make (unit_rects 2000) (Spp_workloads.Generators.chain ~ids:(ids 2000)));
  check_dc_reference "1000-rect antichain"
    (I.Prec.unconstrained (Spp_workloads.Generators.random_rects rng ~n:1000 ~k:8 ~h_den:4));
  (* Negative, non-contiguous ids, not in input order. *)
  let scattered =
    prec
      [ rect (-7) 1 2 1 1; rect (-40) 1 4 2 1; rect 13 1 2 1 2; rect (-1) 1 1 1 1; rect 99 3 4 1 4 ]
      [ (-7, -40); (-7, 13); (-40, -1); (13, -1); (-7, 99) ]
  in
  check_dc_reference "negative ids" scattered;
  let layered300 = Spp_workloads.Generators.random_prec rng ~n:300 ~k:8 ~h_den:4 ~shape:`Layered in
  check_dc_reference ~subroutine:Spp_pack.Level.ffdh "ffdh subroutine" layered300;
  (* NFDH and FFDH sort their band; this subroutine sees the band's order. *)
  check_dc_reference ~subroutine:(Spp_pack.Bottom_left.pack ~order:Fun.id)
    "bottom-left in band order" layered300;
  check_dc_reference "empty" (prec [] []);
  let data = if Sys.file_exists "../data" then "../data" else "data" in
  List.iter
    (fun dir ->
      Array.iter
        (fun file ->
          if Filename.check_suffix file ".spp" then
            match Spp_core.Io.read_file (Filename.concat dir file) with
            | Spp_core.Io.Prec inst -> check_dc_reference file inst
            | Spp_core.Io.Release _ -> ())
        (Sys.readdir dir))
    [ data; Filename.concat data "corpus" ]

let test_dc_past_the_grid () =
  let lcm_inst =
    prec
      [ Rect.make ~id:0 ~w:(q 1 2) ~h:(q 1 p32); Rect.make ~id:1 ~w:(q 1 2) ~h:(q 1 p32');
        rect 2 1 2 1 1; rect 3 1 4 3 4 ]
      [ (0, 2); (1, 2); (1, 3) ]
  in
  let layered =
    Spp_workloads.Generators.random_prec (Spp_util.Prng.create 7) ~n:64 ~k:8 ~h_den:4 ~shape:`Layered
  in
  let scaled (inst : I.Prec.t) = I.Prec.make (List.map (taller past_2_60) inst.rects) inst.dag in
  List.iter
    (fun (label, (inst : I.Prec.t)) ->
      Alcotest.(check bool) (label ^ ": off the grid") false (Dc.on_grid inst);
      check_dc_reference label inst;
      let bot, mid, top = Dc.split inst in
      Alcotest.(check bool) (label ^ ": split partitions, mid non-empty") true
        (mid <> []
        && List.sort compare (bot @ mid @ top)
           = List.sort compare (List.map (fun (r : Rect.t) -> r.Rect.id) inst.rects)))
    [ ("lcm past max_int", lcm_inst); ("diamond past 2^60", scaled (diamond_inst ()));
      ("layered n = 64 past 2^60", scaled layered) ];
  Alcotest.(check bool) "as generated: on the grid" true (Dc.on_grid layered)

let prop_dc_matches_reference =
  QCheck.Test.make ~name:"DC = Dc.Reference, item for item" ~count:150 prec_gen (fun inst ->
      same_packing (Dc.pack inst) (Dc.Reference.pack inst))

(* ------------------------------------------------------------------ *)
(* Uniform height (Section 2.2) *)

let test_uniform_height_detection () =
  let u = prec [ rect 0 1 2 1 1; rect 1 1 4 1 1 ] [] in
  (match Uniform.uniform_height u with
   | Some c -> Alcotest.(check string) "common height" "1" (Q.to_string c)
   | None -> Alcotest.fail "expected uniform");
  let nu = prec [ rect 0 1 2 1 1; rect 1 1 4 1 2 ] [] in
  Alcotest.(check bool) "mixed heights" true (Uniform.uniform_height nu = None);
  Alcotest.check_raises "next_fit_shelf rejects mixed"
    (Invalid_argument "Uniform: instance heights are not uniform") (fun () ->
      ignore (Uniform.next_fit_shelf nu))

let f_stats (s : Uniform.shelf_stats) =
  Printf.sprintf "%d shelves, %d skips" s.Uniform.shelves s.Uniform.skips

let test_algorithm_f_matches_reference () =
  let rng = Spp_util.Prng.create 512 in
  List.iter
    (fun (name, shape) ->
      let inst = Spp_workloads.Generators.random_uniform_prec rng ~n:512 ~k:8 ~shape in
      check_same_packing ("n = 512 " ^ name) f_stats (Uniform.next_fit_shelf inst)
        (Uniform.Reference.next_fit_shelf inst))
    [ ("layered", `Layered); ("series-parallel", `Series_parallel) ]

let test_uniform_empty () =
  (* No height to disagree with: every shelf algorithm packs nothing. *)
  let empty = prec [] [] in
  List.iter
    (fun (name, alg) ->
      let p, stats = alg empty in
      Alcotest.(check int) (name ^ " places nothing") 0 (Placement.size p);
      Alcotest.(check int) (name ^ " opens no shelf") 0 stats.Uniform.shelves)
    [ ("F", Uniform.next_fit_shelf); ("F reference", Uniform.Reference.next_fit_shelf);
      ("PFF", Uniform.prec_first_fit); ("wave", Uniform.wave_ffd) ];
  Alcotest.(check bool) "uniform_height stays None" true (Uniform.uniform_height empty = None)

let prop_algorithm_f_matches_reference =
  QCheck.Test.make ~name:"F = Uniform.Reference, item for item" ~count:150 uniform_gen (fun inst ->
      same_packing (Uniform.next_fit_shelf inst) (Uniform.Reference.next_fit_shelf inst))

let test_algorithm_f_example () =
  (* Chain of two wide rects plus two independent narrow ones. *)
  let inst =
    prec
      [ rect 0 3 4 1 1; rect 1 3 4 1 1; rect 2 1 8 1 1; rect 3 1 8 1 1 ]
      [ (0, 1) ]
  in
  let p, stats = Uniform.next_fit_shelf inst in
  Alcotest.(check bool) "valid" true (Validate.is_valid_prec inst p);
  Alcotest.(check int) "two shelves" 2 stats.Uniform.shelves;
  Alcotest.(check int) "one skip (chain forces close)" 1 stats.Uniform.skips

let prop_algorithm_f_valid =
  QCheck.Test.make ~name:"algorithm F placements valid" ~count:150 uniform_gen (fun inst ->
      let p, _ = Uniform.next_fit_shelf inst in
      Validate.check_prec inst p = [])

let prop_algorithm_f_skip_bound =
  (* Lemma 2.5: skips <= OPT; with unit heights OPT >= longest path, and the
     proof constructs a path with a vertex per skip-shelf, so skips <=
     longest path length. *)
  QCheck.Test.make ~name:"Lemma 2.5: skips <= longest path" ~count:150 uniform_gen (fun inst ->
      let _, stats = Uniform.next_fit_shelf inst in
      stats.Uniform.skips <= Dag.longest_path_length inst.dag)

let prop_prec_first_fit_valid =
  QCheck.Test.make ~name:"precedence first-fit valid" ~count:150 uniform_gen (fun inst ->
      let p, _ = Uniform.prec_first_fit inst in
      Validate.check_prec inst p = [])

let prop_wave_ffd_valid =
  QCheck.Test.make ~name:"wave FFD valid" ~count:150 uniform_gen (fun inst ->
      let p, _ = Uniform.wave_ffd inst in
      Validate.check_prec inst p = [])

let prop_slide_down_preserves =
  (* Any valid (list-scheduled) placement slides down into a shelf solution
     of no greater height that is still valid. *)
  QCheck.Test.make ~name:"slide-down: valid, shelf, no taller" ~count:150 uniform_gen
    (fun inst ->
      let p = List_schedule.prec inst in
      QCheck.assume (Validate.check_prec inst p = []);
      let s = Uniform.slide_down inst p in
      Validate.check_prec inst s = []
      && Q.compare (Placement.height s) (Placement.height p) <= 0
      &&
      let c = match Uniform.uniform_height inst with Some c -> c | None -> Q.one in
      List.for_all
        (fun (it : Placement.item) ->
          let ratio = Q.div it.pos.Placement.y c in
          Q.equal (Q.of_bigint (Q.floor ratio)) ratio)
        (Placement.items s))

let test_red_green_example () =
  (* Three shelves: widths 0.9 / 0.8 / 0.1: sweep pairs (0,1) red (1.7 >= 1),
     shelf 2 green. *)
  let inst =
    prec [ rect 0 9 10 1 1; rect 1 4 5 1 1; rect 2 1 10 1 1 ] [ (0, 1); (1, 2) ]
  in
  let p, _ = Uniform.next_fit_shelf inst in
  let reds, greens = Uniform.red_green_decomposition inst p in
  Alcotest.(check (pair int int)) "colours" (2, 1) (reds, greens)

let prop_red_green_accounting =
  (* Theorem 2.6's proof skeleton: reds + greens = shelves, red shelves come
     in pairs, and reds <= 2*ceil(2*AREA) (each red pair covers area >= 1 over
     two unit-height shelves of total area 2... we check the weaker
     mechanically-exact form reds/2 <= 2*AREA). *)
  QCheck.Test.make ~name:"red/green decomposition accounting" ~count:150 uniform_gen (fun inst ->
      let p, stats = Uniform.next_fit_shelf inst in
      let reds, greens = Uniform.red_green_decomposition inst p in
      reds + greens = stats.Uniform.shelves
      && reds mod 2 = 0
      && float_of_int (reds / 2) <= (2.0 *. Q.to_float (LB.area inst)) +. 1e-9)

(* ------------------------------------------------------------------ *)
(* List scheduling baselines *)

let prop_list_schedule_prec_valid =
  QCheck.Test.make ~name:"list schedule (prec) valid" ~count:150 prec_gen (fun inst ->
      Validate.check_prec inst (List_schedule.prec inst) = [])

let release_gen =
  QCheck.make
    ~print:(fun (inst : I.Release.t) -> Printf.sprintf "n=%d" (I.Release.size inst))
    QCheck.Gen.(
      let* n = int_range 1 12 in
      let* specs = list_repeat n (triple (int_range 1 2) (int_range 1 4) (int_range 0 8)) in
      let tasks =
        List.mapi
          (fun i (wn, hn, rel) ->
            { I.Release.rect = Rect.make ~id:i ~w:(q wn 2) ~h:(q hn 4); release = q rel 2 })
          specs
      in
      return (I.Release.make ~k:2 tasks))

let prop_list_schedule_release_valid =
  QCheck.Test.make ~name:"list schedule (release) valid" ~count:150 release_gen (fun inst ->
      Validate.check_release inst (List_schedule.release inst) = [])

(* ------------------------------------------------------------------ *)
(* Release-time shelf heuristic *)

let test_release_shelf_waits () =
  (* A task released later than the current shelf's base forces a new shelf
     starting at its release. *)
  let inst =
    I.Release.make ~k:2
      [
        { I.Release.rect = rect 0 1 2 1 1; release = Q.zero };
        { I.Release.rect = rect 1 1 2 1 1; release = q 5 2 };
      ]
  in
  let p, stats = Spp_core.Release_shelf.pack inst in
  Alcotest.(check bool) "valid" true (Validate.is_valid_release inst p);
  Alcotest.(check int) "two shelves" 2 stats.Spp_core.Release_shelf.shelves;
  (match Placement.find p ~id:1 with
   | Some it -> Alcotest.(check string) "starts at release" "5/2" (Q.to_string it.pos.Placement.y)
   | None -> Alcotest.fail "missing")

let prop_release_shelf_valid =
  QCheck.Test.make ~name:"release shelf heuristics valid (both fits)" ~count:150 release_gen
    (fun inst ->
      let p1, _ = Spp_core.Release_shelf.pack inst in
      let p2, _ = Spp_core.Release_shelf.pack_first_fit inst in
      Validate.check_release inst p1 = [] && Validate.check_release inst p2 = [])

(* ------------------------------------------------------------------ *)
(* Lemma 3.1: release rounding *)

let prop_round_releases_sound =
  QCheck.Test.make ~name:"Lemma 3.1: releases only increase, bounded count" ~count:150
    (QCheck.pair release_gen (QCheck.int_range 2 5)) (fun (inst, inv_eps) ->
      let eps = q 1 inv_eps in
      let rounded = Grouping.round_releases ~epsilon_r:eps inst in
      let increase_ok =
        List.for_all
          (fun (t : I.Release.task) ->
            Q.compare (I.Release.release rounded t.rect.Rect.id) t.release >= 0)
          inst.tasks
      in
      let rmax = I.Release.max_release inst in
      let delta_ok =
        Q.is_zero rmax
        || List.for_all
             (fun (t : I.Release.task) ->
               let r' = I.Release.release rounded t.rect.Rect.id in
               Q.compare (Q.sub r' t.release) (Q.mul eps rmax) <= 0)
             inst.tasks
      in
      let count_ok =
        List.length (Grouping.distinct_releases rounded) <= inv_eps + 1
      in
      increase_ok && delta_ok && count_ok)

let test_round_releases_zero_rmax () =
  let inst = I.Release.make ~k:2 [ { I.Release.rect = rect 0 1 2 1 1; release = Q.zero } ] in
  let rounded = Grouping.round_releases ~epsilon_r:(q 1 3) inst in
  Alcotest.(check string) "unchanged" "0" (Q.to_string (I.Release.release rounded 0))

(* ------------------------------------------------------------------ *)
(* Lemma 3.2: width grouping *)

let prop_group_widths_sound =
  QCheck.Test.make ~name:"Lemma 3.2: widths only increase, bounded distinct count" ~count:150
    (QCheck.pair release_gen (QCheck.int_range 2 6)) (fun (inst, g) ->
      let grouped = Grouping.group_widths ~groups_per_class:g inst in
      let wider_ok =
        List.for_all2
          (fun (a : I.Release.task) (b : I.Release.task) ->
            a.rect.Rect.id = b.rect.Rect.id
            && Q.compare b.rect.Rect.w a.rect.Rect.w >= 0
            && Q.equal b.rect.Rect.h a.rect.Rect.h)
          inst.tasks grouped.tasks
      in
      (* Distinct widths per release class bounded by g. *)
      let per_class_ok =
        List.for_all
          (fun rel ->
            let widths =
              List.filter_map
                (fun (t : I.Release.task) ->
                  if Q.equal t.release rel then Some t.rect.Rect.w else None)
                grouped.tasks
            in
            List.length (List.sort_uniq Q.compare widths) <= g)
          (Grouping.distinct_releases grouped)
      in
      wider_ok && per_class_ok)

let test_group_widths_stacking_example () =
  (* One class; widths 1, 3/4, 1/2, 1/4 each of height 1; H = 4; g = 2 cuts
     at 0 and 2: thresholds are the width-1 rect (base 0) and the width-1/2
     rect (interval [2,3)); groups: {1, 3/4} -> 1, {1/2, 1/4} -> 1/2. *)
  let tasks =
    List.mapi
      (fun i wn -> { I.Release.rect = Rect.make ~id:i ~w:(q wn 4) ~h:Q.one; release = Q.zero })
      [ 4; 3; 2; 1 ]
  in
  let inst = I.Release.make ~k:4 tasks in
  let grouped = Grouping.group_widths ~groups_per_class:2 inst in
  let w id =
    Q.to_string
      (List.find (fun (t : I.Release.task) -> t.rect.Rect.id = id) grouped.tasks).rect.Rect.w
  in
  Alcotest.(check string) "rect 0" "1" (w 0);
  Alcotest.(check string) "rect 1" "1" (w 1);
  Alcotest.(check string) "rect 2" "1/2" (w 2);
  Alcotest.(check string) "rect 3" "1/2" (w 3)

(* ------------------------------------------------------------------ *)
(* Lemma 3.3: configuration LP *)

let test_enumerate_configs () =
  (* widths 1/2 and 1/3: multisets with sum <= 1:
     {1/2},{1/2,1/2},{1/3},{1/3,1/3},{1/3,1/3,1/3},{1/2,1/3} = 6. *)
  let configs = Config_lp.enumerate_configs [| q 1 2; q 1 3 |] in
  Alcotest.(check int) "count" 6 (List.length configs);
  List.iter
    (fun c ->
      let total = Q.add (Q.mul_int (q 1 2) c.(0)) (Q.mul_int (q 1 3) c.(1)) in
      if Q.compare total Q.one > 0 then Alcotest.fail "config exceeds strip")
    configs;
  Alcotest.check_raises "cap guard" (Failure "Config_lp.enumerate_configs: more than 2 configurations")
    (fun () -> ignore (Config_lp.enumerate_configs ~max_configs:2 [| q 1 2; q 1 3 |]))

let test_config_lp_single_rect () =
  let inst =
    I.Release.make ~k:2 [ { I.Release.rect = rect 0 1 2 1 1; release = q 3 1 } ]
  in
  let sol = Config_lp.solve inst in
  (* One rect (w = 1/2, h = 1) released at 3. The paper's fractional
     relaxation allows pieces of the SAME rectangle side by side, so the
     config {1/2, 1/2} covers it in height 1/2: OPT_f = 3 + 1/2. *)
  Alcotest.(check string) "lp value" "1/2" (Q.to_string sol.Config_lp.lp_value);
  Alcotest.(check string) "fractional height" "7/2" (Q.to_string sol.Config_lp.fractional_height)

let test_config_lp_parallel_fill () =
  (* Two half-width rects, height 1, released at 0: fractionally they sit
     side by side: OPT_f = 1. *)
  let inst =
    I.Release.make ~k:2
      [
        { I.Release.rect = rect 0 1 2 1 1; release = Q.zero };
        { I.Release.rect = rect 1 1 2 1 1; release = Q.zero };
      ]
  in
  let sol = Config_lp.solve inst in
  Alcotest.(check string) "fractional height" "1" (Q.to_string sol.Config_lp.fractional_height)

let test_config_lp_phase_capacity () =
  (* One rect at release 0 (h=1, w=1) and one at release 1/2 (h=1, w=1):
     full-width rects serialise; phase 0 holds only 1/2 of rect 0, the rest
     after: OPT_f = 1/2 + ... fractional: place r0 in [0,1/2) (half of it)
     then r1 must wait for release 1/2 but r0 still needs 1/2 more.
     Fractional slicing allows r0's remainder + r1 sequentially after 1/2:
     total = 1/2 + 1/2 + 1 = 2. *)
  let inst =
    I.Release.make ~k:1
      [
        { I.Release.rect = rect 0 1 1 1 1; release = Q.zero };
        { I.Release.rect = rect 1 1 1 1 1; release = q 1 2 };
      ]
  in
  let sol = Config_lp.solve inst in
  Alcotest.(check string) "fractional height" "2" (Q.to_string sol.Config_lp.fractional_height)

let prop_config_lp_basic_and_lower =
  QCheck.Test.make ~name:"Lemma 3.3: basic solution, fractional <= integral heuristic" ~count:75
    release_gen (fun inst ->
      let sol = Config_lp.solve inst in
      let occ = List.length sol.Config_lp.occurrences in
      let nw = Array.length sol.Config_lp.widths in
      let np = Array.length sol.Config_lp.boundaries in
      (* Basicness: occurrences bounded by the number of LP constraints,
         which is < (nw+1) * np + np. *)
      occ <= ((nw + 1) * np) + np
      &&
      (* The fractional optimum lower-bounds any integral packing. *)
      let integral = Placement.height (List_schedule.release inst) in
      Q.compare sol.Config_lp.fractional_height integral <= 0)

(* ------------------------------------------------------------------ *)
(* Column generation (Gilmore–Gomory pricing) *)

let test_colgen_matches_enumeration_simple () =
  let inst =
    I.Release.make ~k:2
      [
        { I.Release.rect = rect 0 1 2 1 1; release = Q.zero };
        { I.Release.rect = rect 1 1 2 1 1; release = Q.zero };
        { I.Release.rect = rect 2 1 1 3 4; release = Q.one };
      ]
  in
  let full = Config_lp.solve inst in
  let cg = Spp_core.Config_colgen.solve inst in
  Alcotest.(check string) "same optimum"
    (Q.to_string full.Config_lp.fractional_height)
    (Q.to_string cg.Config_lp.fractional_height);
  Alcotest.(check bool) "pool no larger than enumeration" true
    (cg.Config_lp.num_configs <= full.Config_lp.num_configs + 2)

let prop_colgen_matches_enumeration =
  (* Differential test: the generated-column optimum equals the
     full-enumeration optimum exactly on quantised instances. *)
  QCheck.Test.make ~name:"column generation = full enumeration" ~count:50 release_gen
    (fun inst ->
      let full = Config_lp.solve inst in
      let cg = Spp_core.Config_colgen.solve inst in
      Q.equal full.Config_lp.fractional_height cg.Config_lp.fractional_height)

let prop_colgen_wider_widths =
  (* Also on K = 8 instances, where enumeration is much larger than the
     generated pool. *)
  QCheck.Test.make ~name:"column generation on K=8 instances" ~count:15
    (QCheck.int_range 0 10_000) (fun seed ->
      let rng = Spp_util.Prng.create seed in
      let inst =
        Spp_workloads.Generators.random_release rng ~n:12 ~k:8 ~h_den:4 ~r_den:2 ~load:1.2
      in
      let full = Config_lp.solve inst in
      let cg = Spp_core.Config_colgen.solve inst in
      Q.equal full.Config_lp.fractional_height cg.Config_lp.fractional_height
      && cg.Config_lp.num_configs <= full.Config_lp.num_configs)

let test_colgen_warm_reuse () =
  (* A shared warm pool makes a repeat solve start from the previously
     converged configuration pool: the answer is identical and the repeat
     needs fewer pricing rounds and priced columns (it converges without
     generating anything new). *)
  let inst =
    let rng = Spp_util.Prng.create 7 in
    Spp_workloads.Generators.random_release rng ~n:12 ~k:8 ~h_den:4 ~r_den:2 ~load:1.2
  in
  let warm = Spp_core.Config_colgen.warm_start () in
  let rounds_of f =
    Spp_obs.Profile.reset ();
    let r = f () in
    let p = Spp_obs.Profile.read () in
    (r, p.Spp_obs.Profile.colgen_rounds, p.Spp_obs.Profile.colgen_columns)
  in
  let cold, cold_rounds, cold_cols =
    rounds_of (fun () -> Spp_core.Config_colgen.solve ~warm inst)
  in
  let warmed, warm_rounds, warm_cols =
    rounds_of (fun () -> Spp_core.Config_colgen.solve ~warm inst)
  in
  Alcotest.(check string) "same optimum"
    (Q.to_string cold.Config_lp.fractional_height)
    (Q.to_string warmed.Config_lp.fractional_height);
  Alcotest.(check bool) "warm run prices no new columns" true (warm_cols = 0);
  Alcotest.(check bool)
    (Printf.sprintf "warm rounds %d < cold rounds %d (cold priced %d columns)" warm_rounds
       cold_rounds cold_cols)
    true
    (warm_rounds < cold_rounds)

let prop_colgen_warm_equals_cold =
  (* Warm-started solves are exact: seeding the pool never changes the LP
     optimum, whatever instance sequence shares the pool. *)
  QCheck.Test.make ~name:"warm-started column generation = cold" ~count:25 release_gen
    (fun inst ->
      let warm = Spp_core.Config_colgen.warm_start () in
      let cold = Spp_core.Config_colgen.solve inst in
      let w1 = Spp_core.Config_colgen.solve ~warm inst in
      let w2 = Spp_core.Config_colgen.solve ~warm inst in
      Q.equal cold.Config_lp.fractional_height w1.Config_lp.fractional_height
      && Q.equal cold.Config_lp.fractional_height w2.Config_lp.fractional_height)

let prop_aptas_colgen_equivalent =
  (* The full APTAS with column generation: valid, same fractional height
     as the enumerated solver, same accounting guarantees. *)
  QCheck.Test.make ~name:"APTAS with column generation matches enumeration" ~count:25
    release_gen (fun inst ->
      let a = Aptas.solve ~epsilon:Q.one inst in
      let b = Aptas.solve ~solver:`Column_generation ~epsilon:Q.one inst in
      Validate.check_release inst b.Aptas.placement = []
      && Q.equal a.Aptas.fractional_height b.Aptas.fractional_height
      && b.Aptas.fallback_rects = 0
      && Q.compare b.Aptas.height
           (Q.add b.Aptas.fractional_height (Q.of_int b.Aptas.occurrences))
         <= 0)

(* ------------------------------------------------------------------ *)
(* Theorem 3.5: APTAS end to end *)

let test_aptas_trivial () =
  let inst =
    I.Release.make ~k:2
      [
        { I.Release.rect = rect 0 1 2 1 1; release = Q.zero };
        { I.Release.rect = rect 1 1 2 1 1; release = Q.zero };
      ]
  in
  let res = Aptas.solve ~epsilon:Q.one inst in
  Alcotest.(check bool) "valid" true (Validate.is_valid_release inst res.Aptas.placement);
  Alcotest.(check int) "no fallback" 0 res.Aptas.fallback_rects;
  (* Two side-by-side rects: integral height 1 is achievable and the
     rounding bound allows height <= fractional + occurrences. *)
  Alcotest.(check bool) "height bound" true
    (Q.compare res.Aptas.height
       (Q.add res.Aptas.fractional_height (Q.of_int res.Aptas.occurrences))
     <= 0)

let prop_aptas_valid_and_bounded =
  QCheck.Test.make ~name:"APTAS: valid, accounted, within Lemma 3.4 bound" ~count:40 release_gen
    (fun inst ->
      let res = Aptas.solve ~epsilon:Q.one inst in
      Validate.check_release inst res.Aptas.placement = []
      && res.Aptas.fallback_rects = 0
      && res.Aptas.occurrences <= res.Aptas.max_occurrences
      && Q.compare res.Aptas.height
           (Q.add res.Aptas.fractional_height (Q.of_int res.Aptas.occurrences))
         <= 0
      && Q.compare res.Aptas.lower_bound res.Aptas.height <= 0)

let prop_aptas_smaller_epsilon_tighter_fractional =
  (* Smaller epsilon => finer reductions => the reduced instance's
     fractional optimum can only improve (approach OPT_f from above). *)
  QCheck.Test.make ~name:"APTAS fractional height shrinks with epsilon" ~count:20 release_gen
    (fun inst ->
      let r1 = Aptas.solve ~epsilon:Q.one inst in
      let r2 = Aptas.solve ~epsilon:(q 1 2) inst in
      (* Not strictly monotone in theory (different grids), allow slack of
         the coarser guarantee: f2 <= (1+1)/(1+1/2) * f1 is implied by both
         being within their factors of OPT_f; we check the sound inequality
         f2 <= (1+1/3)^2 * OPT_f <= (1+1/3)^2 * f1. *)
      let bound = Q.mul (Q.mul (q 16 9) r1.Aptas.fractional_height) Q.one in
      Q.compare r2.Aptas.fractional_height bound <= 0)

(* ------------------------------------------------------------------ *)
(* Kenyon–Rémila mode: plain strip packing through the same pipeline *)

let test_strip_mode_side_by_side () =
  let rects = [ rect 0 1 2 1 1; rect 1 1 2 1 1 ] in
  let res = Aptas.strip ~epsilon:Q.one ~k:2 rects in
  let inst = I.Release.make ~k:2 (List.map (fun rect -> { I.Release.rect; release = Q.zero }) rects) in
  Alcotest.(check bool) "valid" true (Validate.is_valid_release inst res.Aptas.placement);
  Alcotest.(check int) "single phase" 1 res.Aptas.num_phases;
  Alcotest.(check string) "fractional = 1" "1" (Q.to_string res.Aptas.fractional_height)

let prop_strip_mode_sound =
  QCheck.Test.make ~name:"strip mode: valid, fractional <= NFDH, accounted" ~count:40
    (QCheck.int_range 0 10_000) (fun seed ->
      let rng = Spp_util.Prng.create seed in
      let rects =
        Spp_workloads.Generators.random_rects rng ~n:(4 + (seed mod 12)) ~k:2 ~h_den:4
      in
      let res = Aptas.strip ~epsilon:Q.one ~k:2 rects in
      let inst =
        I.Release.make ~k:2 (List.map (fun rect -> { I.Release.rect; release = Q.zero }) rects)
      in
      Validate.check_release inst res.Aptas.placement = []
      && res.Aptas.num_phases = 1
      && (* fractional is OPT_f of the width-GROUPED instance, so it is only
            within the Lemma 3.2 factor (1 + eps') of OPT_f(P) <= NFDH. *)
      Q.compare res.Aptas.fractional_height
        (Q.mul (Q.of_ints 4 3) (Spp_pack.Level.nfdh_height rects))
      <= 0
      && Q.compare res.Aptas.height
           (Q.add res.Aptas.fractional_height (Q.of_int res.Aptas.occurrences))
         <= 0)

(* ------------------------------------------------------------------ *)
(* GGJY asymptotic behaviour via the reduction *)

let prop_ggjy_asymptotic_envelope =
  (* Garey-Graham-Johnson-Yao: first fit for precedence bin packing is an
     asymptotic 2.7-approximation. Mechanical check against the exact DP:
     PFF <= 2.7 * OPT + 1 on every sampled instance. *)
  QCheck.Test.make ~name:"GGJY: prec first fit <= 2.7*OPT + 1" ~count:100 uniform_gen
    (fun inst ->
      QCheck.assume (I.Prec.size inst <= 12);
      let opt = Q.to_float (Spp_exact.Prec_binpack.min_height inst) in
      let _, stats = Uniform.prec_first_fit inst in
      float_of_int stats.Uniform.shelves <= (2.7 *. opt) +. 1.0 +. 1e-9)

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "spp_core"
    [
      ( "instances",
        [
          Alcotest.test_case "prec validation" `Quick test_prec_instance_validation;
          Alcotest.test_case "release validation" `Quick test_release_instance_validation;
        ] );
      ( "lower-bounds",
        [
          Alcotest.test_case "diamond" `Quick test_lower_bounds_diamond;
          Alcotest.test_case "release" `Quick test_lower_bounds_release;
        ] );
      ( "validate",
        [
          Alcotest.test_case "precedence violations" `Quick test_validate_catches_violations;
          Alcotest.test_case "release violations" `Quick test_validate_release_violations;
          Alcotest.test_case "extras in placement order" `Quick test_validate_extras_in_placement_order;
          Alcotest.test_case "past the grids" `Quick test_validate_past_the_grid;
        ] );
      ( "dc",
        Alcotest.test_case "single rect" `Quick test_dc_single_rect
        :: Alcotest.test_case "empty" `Quick test_dc_empty
        :: Alcotest.test_case "chain tight" `Quick test_dc_chain_is_tight
        :: Alcotest.test_case "diamond valid" `Quick test_dc_diamond
        :: Alcotest.test_case "split on diamond" `Quick test_dc_split_diamond
        :: Alcotest.test_case "same as the reference" `Quick test_dc_matches_reference
        :: Alcotest.test_case "past the height grid" `Quick test_dc_past_the_grid
        :: qt
             [ prop_dc_split_lemmas; prop_dc_valid; prop_dc_induction_bound;
               prop_dc_with_ffdh_subroutine; prop_dc_matches_reference ] );
      ( "uniform",
        Alcotest.test_case "uniform detection" `Quick test_uniform_height_detection
        :: Alcotest.test_case "algorithm F example" `Quick test_algorithm_f_example
        :: Alcotest.test_case "red/green example" `Quick test_red_green_example
        :: Alcotest.test_case "F same as the reference" `Quick test_algorithm_f_matches_reference
        :: Alcotest.test_case "empty instance" `Quick test_uniform_empty
        :: qt
             [
               prop_algorithm_f_valid;
               prop_algorithm_f_matches_reference;
               prop_algorithm_f_skip_bound;
               prop_prec_first_fit_valid;
               prop_wave_ffd_valid;
               prop_slide_down_preserves;
               prop_red_green_accounting;
             ] );
      ( "list-schedule",
        qt [ prop_list_schedule_prec_valid; prop_list_schedule_release_valid ] );
      ( "release-shelf",
        Alcotest.test_case "waits for release" `Quick test_release_shelf_waits
        :: qt [ prop_release_shelf_valid ] );
      ( "lemma-3.1",
        Alcotest.test_case "zero rmax" `Quick test_round_releases_zero_rmax
        :: qt [ prop_round_releases_sound ] );
      ( "lemma-3.2",
        Alcotest.test_case "stacking example" `Quick test_group_widths_stacking_example
        :: qt [ prop_group_widths_sound ] );
      ( "lemma-3.3",
        Alcotest.test_case "enumerate configs" `Quick test_enumerate_configs
        :: Alcotest.test_case "single rect LP" `Quick test_config_lp_single_rect
        :: Alcotest.test_case "parallel fill LP" `Quick test_config_lp_parallel_fill
        :: Alcotest.test_case "phase capacity LP" `Quick test_config_lp_phase_capacity
        :: qt [ prop_config_lp_basic_and_lower ] );
      ( "column-generation",
        Alcotest.test_case "matches enumeration (simple)" `Quick
          test_colgen_matches_enumeration_simple
        :: Alcotest.test_case "warm pool reuse" `Quick test_colgen_warm_reuse
        :: qt
             [ prop_colgen_matches_enumeration; prop_colgen_wider_widths;
               prop_colgen_warm_equals_cold; prop_aptas_colgen_equivalent ] );
      ( "theorem-3.5",
        Alcotest.test_case "trivial APTAS" `Quick test_aptas_trivial
        :: qt [ prop_aptas_valid_and_bounded; prop_aptas_smaller_epsilon_tighter_fractional ] );
      ( "kenyon-remila-mode",
        Alcotest.test_case "side by side" `Quick test_strip_mode_side_by_side
        :: qt [ prop_strip_mode_sound ] );
      ("ggjy", qt [ prop_ggjy_asymptotic_envelope ]);
    ]
