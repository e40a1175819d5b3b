(* lib/sim — live strip state, arrival streams, online packers, and
   min-disruption repacking.

   The deeper soundness sweep lives in the fuzz properties
   (sound.sim.*, sim.stream); this suite pins the deterministic
   behaviours: strip-state invariants, arrival-stream reproducibility,
   repack cost accounting (greedy vs exact on a crafted state), and the
   online-vs-offline ratio on a golden trace. *)

module Q = Spp_num.Rat
module I = Spp_core.Instance
module Rect = Spp_geom.Rect
module LB = Spp_core.Lower_bounds
module Strip = Spp_sim.Strip_state
module Arrivals = Spp_sim.Arrivals
module Online = Spp_sim.Online
module Repack = Spp_sim.Repack
module Sim = Spp_sim.Sim

let q = Q.of_string
let check_q msg expected actual = Alcotest.(check string) msg (Q.to_string expected) (Q.to_string actual)

(* ------------------------------------------------------------------ *)
(* Strip_state (times and durations in ticks) *)

let test_place_and_retire () =
  let s = Strip.create ~k:8 in
  Strip.place s ~id:1 ~cols:3 ~col_lo:0 ~duration:2;
  Strip.place s ~id:2 ~cols:2 ~col_lo:3 ~duration:1;
  Alcotest.(check int) "residents" 2 (Strip.resident_count s);
  Alcotest.(check int) "free cols" 3 (Strip.free_cols s);
  let finished = Strip.advance s 1 in
  Alcotest.(check (list int)) "task 2 retires first" [ 2 ]
    (List.map (fun (r : Strip.resident) -> r.Strip.id) finished);
  let finished = Strip.advance s 5 in
  Alcotest.(check (list int)) "task 1 retires" [ 1 ]
    (List.map (fun (r : Strip.resident) -> r.Strip.id) finished);
  Alcotest.(check int) "strip drained" 0 (Strip.resident_count s);
  Alcotest.(check int) "segment per task" 2 (List.length (Strip.segments s ~scale:1))

let test_place_rejects_overlap () =
  let s = Strip.create ~k:4 in
  Strip.place s ~id:1 ~cols:2 ~col_lo:1 ~duration:1;
  List.iter
    (fun (id, cols, col_lo) ->
      match Strip.place s ~id ~cols ~col_lo ~duration:1 with
      | () -> Alcotest.failf "place %d accepted" id
      | exception Invalid_argument _ -> ())
    [ (2, 1, 2) (* overlaps *); (3, 2, 3) (* out of strip *); (1, 1, 0) (* duplicate id *) ];
  match Strip.place s ~id:4 ~cols:1 ~col_lo:0 ~duration:0 with
  | () -> Alcotest.fail "zero duration accepted"
  | exception Invalid_argument _ -> ()

let test_first_fit_leftmost () =
  let s = Strip.create ~k:8 in
  Strip.place s ~id:1 ~cols:2 ~col_lo:1 ~duration:1;
  Strip.place s ~id:2 ~cols:2 ~col_lo:5 ~duration:1;
  (* Occupancy: .XX..XX.  — windows: 1 col at 0; 2 cols at 3. *)
  Alcotest.(check (option int)) "1 col fits at 0" (Some 0) (Strip.first_fit s ~cols:1);
  Alcotest.(check (option int)) "2 cols fit at 3" (Some 3) (Strip.first_fit s ~cols:2);
  Alcotest.(check (option int)) "3 cols never fit" None (Strip.first_fit s ~cols:3)

let test_fragmentation_metric () =
  let s = Strip.create ~k:8 in
  check_q "empty strip unfragmented" Q.zero (Strip.fragmentation s);
  Strip.place s ~id:1 ~cols:1 ~col_lo:2 ~duration:1;
  Strip.place s ~id:2 ~cols:1 ~col_lo:5 ~duration:1;
  (* Free = {0,1,3,4,6,7}: 6 free cols, largest run 2 -> 1 - 2/6. *)
  check_q "split free space" (q "2/3") (Strip.fragmentation s);
  Alcotest.(check int) "largest run" 2 (Strip.largest_free_run s)

let test_apply_moves_permutation () =
  (* A swap through each other's old columns must be validated as a final
     configuration, not move-by-move. *)
  let s = Strip.create ~k:4 in
  Strip.place s ~id:1 ~cols:2 ~col_lo:0 ~duration:2;
  Strip.place s ~id:2 ~cols:2 ~col_lo:2 ~duration:2;
  ignore (Strip.advance s 1);
  Strip.apply_moves s [ (1, 2); (2, 0) ];
  let by_id id =
    List.find (fun (r : Strip.resident) -> r.Strip.id = id) (Strip.residents s)
  in
  Alcotest.(check int) "task 1 relocated" 2 (by_id 1).Strip.col_lo;
  Alcotest.(check int) "task 2 relocated" 0 (by_id 2).Strip.col_lo;
  (* Each task now has a closed pre-move segment and a live one. *)
  ignore (Strip.advance s 2);
  Alcotest.(check int) "two segments per task" 4 (List.length (Strip.segments s ~scale:1));
  match Strip.apply_moves s [ (1, 0) ] with
  | () -> Alcotest.fail "moving a retired task accepted"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Arrivals *)

let test_trace_deterministic () =
  let spec = Arrivals.Poisson 1.5 in
  let t1 = Arrivals.trace ~n:20 ~k:6 ~seed:42 spec in
  let t2 = Arrivals.trace ~n:20 ~k:6 ~seed:42 spec in
  let t3 = Arrivals.trace ~n:20 ~k:6 ~seed:43 spec in
  Alcotest.(check string) "same seed, same trace"
    (Spp_core.Io.release_to_string t1) (Spp_core.Io.release_to_string t2);
  Alcotest.(check bool) "different seed, different trace" false
    (Spp_core.Io.release_to_string t1 = Spp_core.Io.release_to_string t3);
  let s1, w1 = Arrivals.of_instance t1 in
  let s2, w2 = Arrivals.of_instance t2 in
  Alcotest.(check bool) "same arrival stream" true (s1 = s2 && w1 = w2);
  let sorted =
    List.for_all2
      (fun (a : Arrivals.arrival) b -> Q.compare a.Arrivals.release b.Arrivals.release <= 0)
      (List.filteri (fun i _ -> i < List.length s1 - 1) s1)
      (List.tl s1)
  in
  Alcotest.(check bool) "stream sorted by release" true sorted

let test_widening () =
  (* Width 1/2 on a 3-column strip is not a column multiple: ceil to 2. *)
  let task = { I.Release.rect = { Rect.id = 0; w = q "1/2"; h = Q.one }; release = Q.zero } in
  let inst = I.Release.make ~k:3 [ task ] in
  let stream, widened = Arrivals.of_instance inst in
  Alcotest.(check int) "one task widened" 1 widened;
  Alcotest.(check (list int)) "ceil to 2 cols" [ 2 ]
    (List.map (fun (a : Arrivals.arrival) -> a.Arrivals.cols) stream)

let test_pacing_deterministic () =
  let gaps seed =
    let p = Arrivals.pacing (Spp_util.Prng.create seed) (Arrivals.Burst { burst_len = 3; idle_gap = 2.0 }) in
    List.init 9 (fun _ -> p ())
  in
  Alcotest.(check (list (float 0.0))) "same seed, same gaps" (gaps 7) (gaps 7);
  (* Burst shape: after each idle gap, burst_len - 1 zero gaps. *)
  (match gaps 7 with
   | g0 :: g1 :: g2 :: g3 :: _ ->
     Alcotest.(check bool) "leading idle gap" true (g0 > 0.0);
     Alcotest.(check (list (float 0.0))) "burst is back-to-back" [ 0.0; 0.0 ] [ g1; g2 ];
     Alcotest.(check bool) "next idle gap" true (g3 > 0.0)
   | _ -> Alcotest.fail "short gap stream")

let test_spec_parsing () =
  (match Arrivals.parse_spec "poisson:1.5" with
   | Ok (Arrivals.Poisson r) -> Alcotest.(check (float 0.0)) "rate" 1.5 r
   | _ -> Alcotest.fail "poisson spec");
  (match Arrivals.parse_spec "burst:6:2.0" with
   | Ok (Arrivals.Burst { burst_len; idle_gap }) ->
     Alcotest.(check int) "len" 6 burst_len;
     Alcotest.(check (float 0.0)) "gap" 2.0 idle_gap
   | _ -> Alcotest.fail "burst spec");
  List.iter
    (fun s ->
      match Arrivals.parse_spec s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error _ -> ())
    [ "poisson"; "poisson:0"; "poisson:-1"; "burst:0:1"; "burst:2:0"; "drizzle:1" ]

(* ------------------------------------------------------------------ *)
(* Repack *)

(* Crafted state where left-compaction is suboptimal: A|1 at 0, B|2 at 4,
   C|1 at 7 on k=8. Greedy moves B and C (3 cells); the exact search
   consolidates the gap at the far left instead, sliding only A to
   column 6 (1 cell) while B and C stay put. *)
let crafted_strip () =
  let s = Strip.create ~k:8 in
  Strip.place s ~id:1 ~cols:1 ~col_lo:0 ~duration:10;
  Strip.place s ~id:2 ~cols:2 ~col_lo:4 ~duration:10;
  Strip.place s ~id:3 ~cols:1 ~col_lo:7 ~duration:10;
  s

let test_repack_greedy_vs_exact () =
  let s = crafted_strip () in
  check_q "fragmented" (q "1/4") (Strip.fragmentation s);
  let g = Repack.greedy s in
  Alcotest.(check int) "greedy migrates 3 cells" 3 g.Repack.cells;
  (match Repack.exact s with
   | None -> Alcotest.fail "exact gave up on n=3"
   | Some e ->
     Alcotest.(check int) "exact migrates 1 cell" 1 e.Repack.cells;
     Strip.apply_moves s e.Repack.moves;
     check_q "defragmented" Q.zero (Strip.fragmentation s));
  (* exact falls back to greedy above the resident cap *)
  let s2 = crafted_strip () in
  Alcotest.(check (option int)) "cap respected" None
    (Option.map (fun (p : Repack.plan) -> p.Repack.cells) (Repack.exact ~max_residents:2 s2));
  Alcotest.(check int) "best under cap = greedy" 3 (Repack.best ~max_residents:2 s2).Repack.cells

let test_repack_noop_when_compact () =
  let s = Strip.create ~k:8 in
  Strip.place s ~id:1 ~cols:3 ~col_lo:0 ~duration:1;
  Strip.place s ~id:2 ~cols:2 ~col_lo:3 ~duration:1;
  List.iter
    (fun (p : Repack.plan) ->
      Alcotest.(check int) "no moves" 0 (List.length p.Repack.moves);
      Alcotest.(check int) "no cells" 0 p.Repack.cells)
    [ Repack.greedy s; Repack.best s ]

(* ------------------------------------------------------------------ *)
(* Sim end to end *)

let golden_trace () = Arrivals.trace ~n:20 ~k:6 ~seed:42 (Arrivals.Poisson 1.5)

let test_sim_deterministic () =
  let inst = golden_trace () in
  let run () = Sim.run ~repack_threshold:(q "1/4") ~packer:Online.First_fit inst in
  let r1 = run () and r2 = run () in
  check_q "same makespan" r1.Sim.makespan r2.Sim.makespan;
  check_q "same wait" r1.Sim.total_wait r2.Sim.total_wait;
  Alcotest.(check bool) "same segments" true (r1.Sim.segments = r2.Sim.segments);
  Alcotest.(check int) "same repacks" (List.length r1.Sim.repacks) (List.length r2.Sim.repacks)

let test_sim_sound_and_above_bounds () =
  let inst = golden_trace () in
  List.iter
    (fun packer ->
      let r = Sim.run ~packer inst in
      Alcotest.(check (list string)) "no violations" []
        (List.map (Format.asprintf "%a" Sim.pp_violation) (Sim.check inst r));
      Alcotest.(check int) "all tasks placed" 20 r.Sim.placements;
      Alcotest.(check bool) "competitive ratio >= 1 vs Section 3 LB" true
        (Q.compare r.Sim.makespan (LB.release inst) >= 0);
      (* No repacking: the run is an offline placement; the geometric
         oracle must agree. *)
      match Sim.to_placement inst r with
      | None -> Alcotest.fail "move-free run has no placement view"
      | Some p ->
        Alcotest.(check bool) "placement oracle agrees" true
          (Spp_core.Validate.is_valid_release inst p);
        check_q "placement height is the makespan" r.Sim.makespan
          (Spp_geom.Placement.height p))
    [ Online.First_fit; Online.Buffered 4 ]

let test_sim_vs_certified_offline_lb () =
  (* Small golden trace so the APTAS is cheap: its certified lower bound
     must sit at or below any online makespan, exactly. *)
  let inst = Arrivals.trace ~n:10 ~k:4 ~seed:11 (Arrivals.Poisson 1.0) in
  let res = Spp_core.Aptas.solve ~epsilon:Q.one inst in
  List.iter
    (fun packer ->
      let r = Sim.run ~packer inst in
      Alcotest.(check bool) "aptas LB <= online makespan" true
        (Q.compare res.Spp_core.Aptas.lower_bound r.Sim.makespan <= 0))
    [ Online.First_fit; Online.Buffered 2 ]

let test_sim_repack_accounting () =
  (* Burst traces fragment the strip; run until a repack fires and check
     the cost arithmetic and the strict fragmentation decrease. *)
  let fired = ref false in
  List.iter
    (fun seed ->
      let inst = Arrivals.trace ~n:30 ~k:8 ~seed (Arrivals.Burst { burst_len = 6; idle_gap = 2.0 }) in
      let r =
        Sim.run ~repack_threshold:(q "1/8") ~migration_cost:(q "3/2") ~packer:Online.First_fit inst
      in
      Alcotest.(check (list string)) "sound across migrations" []
        (List.map (Format.asprintf "%a" Sim.pp_violation) (Sim.check inst r));
      if r.Sim.repacks <> [] then fired := true;
      List.iter
        (fun (e : Sim.repack_event) ->
          Alcotest.(check bool) "strictly reduces fragmentation" true
            (Q.compare e.Sim.frag_after e.Sim.frag_before < 0))
        r.Sim.repacks;
      Alcotest.(check int) "cells add up"
        (List.fold_left (fun a (e : Sim.repack_event) -> a + e.Sim.cells) 0 r.Sim.repacks)
        r.Sim.cells_migrated;
      check_q "cost = cells * 3/2"
        (Q.mul (Q.of_int r.Sim.cells_migrated) (q "3/2"))
        r.Sim.migration_cost)
    [ 1; 2; 3; 4; 5 ];
  Alcotest.(check bool) "at least one repack fired on the burst corpus" true !fired

let test_sim_check_catches_planted_overlap () =
  let inst = golden_trace () in
  let r = Sim.run ~packer:Online.First_fit inst in
  (* Shift every segment to column 0: tasks that ran side by side now
     collide, and the independent validator must say so. *)
  let tampered =
    { r with Sim.segments = List.map (fun (s : Strip.segment) -> { s with Strip.seg_lo = 0 }) r.Sim.segments }
  in
  Alcotest.(check bool) "tampered log rejected" true (Sim.check inst tampered <> []);
  (* The sweep must report the pairwise reference's list, order included. *)
  let show vs = List.map (Format.asprintf "%a" Sim.pp_violation) vs in
  Alcotest.(check (list string)) "sweep equals reference"
    (show (Sim.Reference.check inst tampered)) (show (Sim.check inst tampered))

let test_sim_check_unknown_task () =
  (* A segment of a task the instance does not have, after the makespan:
     no overlap and no per-task fault, so only the id check sees it. *)
  let inst = golden_trace () in
  let r = Sim.run ~packer:Online.First_fit inst in
  let phantom =
    { Strip.seg_id = 99999; seg_cols = 1; seg_lo = 0; seg_from = r.Sim.makespan;
      seg_to = Q.add r.Sim.makespan Q.one }
  in
  let tampered = { r with Sim.segments = r.Sim.segments @ [ phantom ] } in
  let show vs = List.map (Format.asprintf "%a" Sim.pp_violation) vs in
  let expected = show [ Sim.Unknown_task 99999 ] in
  Alcotest.(check (list string)) "check" expected (show (Sim.check inst tampered));
  Alcotest.(check (list string)) "reference check" expected (show (Sim.Reference.check inst tampered))

(* Logs no tick grid can hold are checked on rationals with the
   reference's result: releases over two primes near 2^32 (their lcm
   passes a native int), and every time times p/(p+1) for p = 2^61 - 1
   (past 2^60). Every segment is moved to column 0, so tasks collide. *)
let test_sim_check_past_the_ticks () =
  let p32 = 4294967291 and p32' = 4294967279 and p61 = (1 lsl 61) - 1 in
  let times factor (inst : I.Release.t) =
    I.Release.make ~k:inst.I.Release.k
      (List.map
         (fun (t : I.Release.task) ->
           let r = t.I.Release.rect in
           { I.Release.rect = Rect.make ~id:r.Rect.id ~w:r.Rect.w ~h:(Q.mul r.Rect.h factor);
             release = Q.mul t.I.Release.release factor })
         inst.I.Release.tasks)
  in
  let lcm_inst =
    I.Release.make ~k:2
      [ { I.Release.rect = Rect.make ~id:0 ~w:(q "1/2") ~h:Q.one; release = Q.of_ints 1 p32 };
        { I.Release.rect = Rect.make ~id:1 ~w:(q "1/2") ~h:Q.one; release = Q.of_ints 1 p32' } ]
  in
  let show vs = List.map (Format.asprintf "%a" Sim.pp_violation) vs in
  List.iter
    (fun (label, inst) ->
      let r = Sim.run ~packer:Online.First_fit inst in
      let r = { r with Sim.segments = List.map (fun (s : Strip.segment) -> { s with Strip.seg_lo = 0 }) r.Sim.segments } in
      Alcotest.(check bool) (label ^ ": off the ticks") false (Sim.check_on_ticks inst r);
      Alcotest.(check bool) (label ^ ": a violation") true (Sim.check inst r <> []);
      Alcotest.(check (list string)) label (show (Sim.Reference.check inst r)) (show (Sim.check inst r)))
    [ ("lcm past max_int", lcm_inst); ("values past 2^60", times (Q.of_ints p61 (p61 + 1)) (golden_trace ())) ]

(* A canonical print of a whole report: every field, each repack event
   and each segment, rationals as Q.to_string. *)
let report_digest (r : Sim.report) =
  let qs = Q.to_string in
  Printf.sprintf
    "k %d tasks %d widened %d makespan %s total_wait %s max_pending %d placements %d moves %d \
     cells_migrated %d migration_cost %s frag_peak %s frag_mean %s"
    r.Sim.k r.Sim.tasks r.Sim.widened (qs r.Sim.makespan) (qs r.Sim.total_wait) r.Sim.max_pending
    r.Sim.placements r.Sim.moves r.Sim.cells_migrated (qs r.Sim.migration_cost) (qs r.Sim.frag_peak)
    (qs r.Sim.frag_mean)
  :: List.map
       (fun (e : Sim.repack_event) ->
         Printf.sprintf "repack %s %s %s %d %d" (qs e.Sim.at) (qs e.Sim.frag_before)
           (qs e.Sim.frag_after) e.Sim.moved e.Sim.cells)
       r.Sim.repacks
  @ List.map
      (fun (g : Strip.segment) ->
        Printf.sprintf "segment %d %d %d %s %s" g.Strip.seg_id g.Strip.seg_cols g.Strip.seg_lo
          (qs g.Strip.seg_from) (qs g.Strip.seg_to))
      r.Sim.segments
  |> String.concat "\n" |> Digest.string |> Digest.to_hex

(* The reports of the rational simulator before the tick loop replaced
   it, by digest: n = 1000, K = 8, seeds 1-3, two arrival shapes, four
   settings, and one instance past the tick guard. *)
let pinned_digests =
  [ ("poisson:2.0", 1, [ "ce1fd9832885a37b904196dc3202cad1"; "57498b64383768fc45467c2936c624de";
                         "e664e20479c3223cf80cb1f8f822cf3a"; "03f2d7fdd866d1af7a90da72cb30cdec" ]);
    ("poisson:2.0", 2, [ "11ff08a9204b7d6bee72ba7d7f814dc1"; "5a73a3437bf9f9703940855b8f4995ad";
                         "41e8834e49f78d8e9f349c484939155e"; "749c7c569f8492171b1e63efbaf3f1f4" ]);
    ("poisson:2.0", 3, [ "fb61b87c060d587c5a5027348d38023c"; "c82244968bca26d4b7239e369c6e6197";
                         "7b526b51e0223e58add3a3c1764b773e"; "368696ac2dee8aa9db8b09132fd93a86" ]);
    ("burst:6:2.0", 1, [ "1f0f516ec3832d20b75dcf6753126ff8"; "ec5cd56536141d8719277fadaca6267a";
                         "a851b03ab815a51663528176db1052ab"; "46ad247040cb7f027186c32305d82172" ]);
    ("burst:6:2.0", 2, [ "ddc3b22e14926402a7eb69b360a7f80f"; "4a59f76858ff90ec071699dfaa1f193f";
                         "7d205d4588e11815f13f19ddbe28b30d"; "a18f96a6aecf70ce4ed2210e9cd704f7" ]);
    ("burst:6:2.0", 3, [ "c13589eb6641d082fa1f844eead7303b"; "96e53b48f1931dddebf24f1058eb1ddd";
                         "fa1824b4e65a829478f7cf30a4deec08"; "d0791a38ca5be2c60feb32d2bddef5ae" ]) ]

let test_sim_reports_pinned () =
  let settings =
    [ ("first-fit", Online.First_fit, None); ("first-fit, repack 1/4", Online.First_fit, Some (q "1/4"));
      ("buffered:4", Online.Buffered 4, None); ("buffered:1, repack 1/8", Online.Buffered 1, Some (q "1/8")) ]
  in
  List.iter
    (fun (spec, seed, digests) ->
      let inst =
        Arrivals.trace ~n:1000 ~k:8 ~seed (Result.get_ok (Arrivals.parse_spec spec))
      in
      List.iter2
        (fun (name, packer, repack_threshold) digest ->
          Alcotest.(check bool) "on the ticks" true (Sim.on_kernel ?repack_threshold inst);
          Alcotest.(check string)
            (Printf.sprintf "%s seed %d, %s" spec seed name)
            digest
            (report_digest (Sim.run ?repack_threshold ~packer inst)))
        settings digests)
    pinned_digests;
  (* Heights and releases times p/(p+1), p = 2^61 - 1: past the guard. *)
  let p = (1 lsl 61) - 1 in
  let factor = Q.of_ints p (p + 1) in
  let inst = Arrivals.trace ~n:200 ~k:8 ~seed:1 (Arrivals.Poisson 2.0) in
  let inst =
    I.Release.make ~k:8
      (List.map
         (fun (t : I.Release.task) ->
           let r = t.I.Release.rect in
           { I.Release.rect = Rect.make ~id:r.Rect.id ~w:r.Rect.w ~h:(Q.mul r.Rect.h factor);
             release = Q.mul t.I.Release.release factor })
         inst.I.Release.tasks)
  in
  let repack_threshold = q "1/4" in
  Alcotest.(check bool) "past the guard" false (Sim.on_kernel ~repack_threshold inst);
  Alcotest.(check string) "past the guard, first-fit, repack 1/4" "923b8c07b938ea817076e09b40ea45e3"
    (report_digest (Sim.run ~repack_threshold ~packer:Online.First_fit inst))

let test_sim_metrics_published () =
  let inst = golden_trace () in
  let registry = Spp_obs.Metrics.create () in
  let r = Sim.run ~registry ~packer:Online.First_fit inst in
  Alcotest.(check int) "placements counter" r.Sim.placements
    (Spp_obs.Metrics.counter_value (Spp_obs.Metrics.counter registry "spp_sim_placements_total"));
  Alcotest.(check int) "arrivals counter" 20
    (Spp_obs.Metrics.counter_value (Spp_obs.Metrics.counter registry "spp_sim_arrivals_total"))

let test_packer_parse () =
  List.iter
    (fun (s, expected) ->
      match Online.parse s with
      | Ok p -> Alcotest.(check string) s expected (Online.to_string p)
      | Error msg -> Alcotest.failf "rejected %S: %s" s msg)
    [ ("first-fit", "first-fit"); ("ff", "first-fit"); ("buffered", "buffered:4");
      ("buffered:2", "buffered:2") ];
  List.iter
    (fun s -> match Online.parse s with Ok _ -> Alcotest.failf "accepted %S" s | Error _ -> ())
    [ "buffered:0"; "buffered:x"; "worst-fit" ]

let () =
  Alcotest.run "spp_sim"
    [
      ( "strip-state",
        [
          Alcotest.test_case "place and retire" `Quick test_place_and_retire;
          Alcotest.test_case "rejects bad placements" `Quick test_place_rejects_overlap;
          Alcotest.test_case "first fit leftmost" `Quick test_first_fit_leftmost;
          Alcotest.test_case "fragmentation metric" `Quick test_fragmentation_metric;
          Alcotest.test_case "apply moves permutation" `Quick test_apply_moves_permutation;
        ] );
      ( "arrivals",
        [
          Alcotest.test_case "trace deterministic" `Quick test_trace_deterministic;
          Alcotest.test_case "widening to column grid" `Quick test_widening;
          Alcotest.test_case "pacing deterministic" `Quick test_pacing_deterministic;
          Alcotest.test_case "spec parsing" `Quick test_spec_parsing;
        ] );
      ( "repack",
        [
          Alcotest.test_case "greedy vs exact" `Quick test_repack_greedy_vs_exact;
          Alcotest.test_case "noop when compact" `Quick test_repack_noop_when_compact;
        ] );
      ( "sim",
        [
          Alcotest.test_case "run twice, identical" `Quick test_sim_deterministic;
          Alcotest.test_case "sound and above bounds" `Quick test_sim_sound_and_above_bounds;
          Alcotest.test_case "certified offline LB" `Quick test_sim_vs_certified_offline_lb;
          Alcotest.test_case "repack accounting" `Quick test_sim_repack_accounting;
          Alcotest.test_case "validator catches tampering" `Quick test_sim_check_catches_planted_overlap;
          Alcotest.test_case "validator names unknown tasks" `Quick test_sim_check_unknown_task;
          Alcotest.test_case "validator past the ticks" `Quick test_sim_check_past_the_ticks;
          Alcotest.test_case "reports pinned by digest" `Quick test_sim_reports_pinned;
          Alcotest.test_case "metrics published" `Quick test_sim_metrics_published;
          Alcotest.test_case "packer parsing" `Quick test_packer_parse;
        ] );
    ]
