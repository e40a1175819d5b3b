module Q = Spp_num.Rat
module Rect = Spp_geom.Rect
module Placement = Spp_geom.Placement
module Dag = Spp_dag.Dag
module Io = Spp_core.Io
module I = Spp_core.Instance
module Validate = Spp_core.Validate
module LB = Spp_core.Lower_bounds
module Mutate = Spp_workloads.Mutate
open Runner

type t = Io.parsed Runner.property

(* ------------------------------------------------------------------ *)
(* Helpers *)

let on_prec check = function Io.Prec inst -> check inst | Io.Release _ -> Skip
let on_release check = function Io.Release inst -> check inst | Io.Prec _ -> Skip

let pp_violations vs =
  let shown = List.filteri (fun i _ -> i < 3) vs in
  Printf.sprintf "%d violation(s): %s" (List.length vs)
    (String.concat "; " (List.map (Format.asprintf "%a" Validate.pp_violation) shown))

let prec_valid inst p =
  match Validate.check_prec inst p with [] -> Pass | vs -> Fail (pp_violations vs)

let release_valid inst p =
  match Validate.check_release inst p with [] -> Pass | vs -> Fail (pp_violations vs)

let qs = Q.to_string

let all_pass checks =
  let rec go = function
    | [] -> Pass
    | (true, _) :: rest -> go rest
    | (false, msg) :: _ -> Fail (msg ())
  in
  go checks

(* Size gates for the exponential reference solvers: generous enough to
   fire on roughly half the generated cases, small enough that a 2000-case
   run stays in CI budget. The exact gate rides on Normal_bb's dominance
   table and bounds: instances up to n = 9 that formerly ran for minutes
   now finish well inside the (also lowered) fuse. *)
let exact_gate = 9
let uniform_dp_gate = 9
let aptas_gate_n = 12
let aptas_gate_k = 4
let engine_gate = 8

(* Wall-clock fuse for the exponential reference solvers: Normal_bb
   branches over subset-sum grids (up to 2^n distinct coordinates per
   axis), so all-distinct-rational instances can still blow up in the
   worst case. A tripped fuse makes the property Skip — heuristic
   soundness is still checked by the sound.* family, and the skip shows
   up in the per-property counts rather than stalling a run. *)
let exact_budget_ms = 500.

let with_exact_budget f =
  let cancel = Spp_util.Cancel.with_deadline_ms exact_budget_ms in
  try f cancel with Spp_util.Cancel.Cancelled -> Skip

let prop name doc tags check = { name; doc; tags; check }

(* A deterministic per-case seed: hash of the instance's canonical text.
   Shared by the stream-replay and numeric-differential properties. *)
let stream_seed_of parsed =
  let printed =
    match parsed with
    | Io.Prec inst -> Io.prec_to_string inst
    | Io.Release inst -> Io.release_to_string inst
  in
  Int32.to_int (Spp_util.Crc32.digest printed) land 0x3FFFFFFF

(* ------------------------------------------------------------------ *)
(* Soundness *)

let sound_dc =
  prop "sound.dc" "DC output passes Validate.check_prec (Algorithm 1)" [ "prec"; "dc" ]
    (on_prec (fun inst -> prec_valid inst (fst (Spp_core.Dc.pack inst))))

let sound_ls_prec =
  prop "sound.ls.prec" "greedy list scheduler respects geometry and the DAG" [ "prec"; "ls" ]
    (on_prec (fun inst -> prec_valid inst (Spp_core.List_schedule.prec inst)))

let uniform_only check inst =
  match Spp_core.Uniform.uniform_height inst with None -> Skip | Some c -> check c inst

let sound_uniform_f =
  prop "sound.uniform.f" "algorithm F (next-fit shelf) output is valid" [ "prec"; "f" ]
    (on_prec (uniform_only (fun _ inst -> prec_valid inst (fst (Spp_core.Uniform.next_fit_shelf inst)))))

let sound_uniform_pff =
  prop "sound.uniform.pff" "precedence first-fit output is valid" [ "prec"; "pff" ]
    (on_prec (uniform_only (fun _ inst -> prec_valid inst (fst (Spp_core.Uniform.prec_first_fit inst)))))

let sound_uniform_wave =
  prop "sound.uniform.wave" "wave FFD output is valid" [ "prec"; "wave" ]
    (on_prec (uniform_only (fun _ inst -> prec_valid inst (fst (Spp_core.Uniform.wave_ffd inst)))))

let sound_ls_release =
  prop "sound.ls.release" "release list scheduler respects geometry and releases"
    [ "release"; "ls" ]
    (on_release (fun inst -> release_valid inst (Spp_core.List_schedule.release inst)))

let sound_shelf =
  prop "sound.shelf" "release shelf heuristic (next-fit) output is valid" [ "release"; "shelf" ]
    (on_release (fun inst -> release_valid inst (fst (Spp_core.Release_shelf.pack inst))))

let sound_shelf_ff =
  prop "sound.shelf.ff" "release shelf heuristic (first-fit) output is valid"
    [ "release"; "shelf" ]
    (on_release (fun inst -> release_valid inst (fst (Spp_core.Release_shelf.pack_first_fit inst))))

(* ------------------------------------------------------------------ *)
(* Guarantee certification *)

let guar_dc_thm23 =
  prop "guar.dc.thm2.3" "DC height <= log2(n+1)*F + 2*AREA (Theorem 2.3 induction bound)"
    [ "prec"; "dc" ]
    (on_prec (fun inst ->
         let h = Q.to_float (Placement.height (fst (Spp_core.Dc.pack inst))) in
         let bound = Spp_core.Dc.theorem_2_3_bound inst in
         if h <= bound +. 1e-9 then Pass
         else Fail (Printf.sprintf "DC height %.6f exceeds Theorem 2.3 bound %.6f" h bound)))

let guar_prec_lb =
  prop "guar.prec.lb" "DC and LS heights at or above max(AREA, F) (Section 2 lower bounds)"
    [ "prec"; "dc"; "ls" ]
    (on_prec (fun inst ->
         let lb = LB.prec inst in
         let dc = Placement.height (fst (Spp_core.Dc.pack inst)) in
         let ls = Placement.height (Spp_core.List_schedule.prec inst) in
         all_pass
           [ (Q.compare dc lb >= 0, fun () -> Printf.sprintf "DC height %s below LB %s" (qs dc) (qs lb));
             (Q.compare ls lb >= 0, fun () -> Printf.sprintf "LS height %s below LB %s" (qs ls) (qs lb)) ]))

let guar_uniform_f_thm26 =
  prop "guar.uniform.f.thm2.6"
    "algorithm F: skips <= longest path (Lemma 2.5) and height <= 2*AREA + F(S) + c (Theorem 2.6 accounting)"
    [ "prec"; "f" ]
    (on_prec
       (uniform_only (fun c inst ->
            let p, stats = Spp_core.Uniform.next_fit_shelf inst in
            let area = LB.area inst and cp = LB.critical_path inst in
            let bound = Q.add (Q.add (Q.mul_int area 2) cp) c in
            let h = Placement.height p in
            let path = Dag.longest_path_length inst.I.Prec.dag in
            all_pass
              [ (stats.Spp_core.Uniform.skips <= path,
                 fun () -> Printf.sprintf "%d skips exceed longest path %d (Lemma 2.5)"
                     stats.Spp_core.Uniform.skips path);
                (Q.compare h bound <= 0,
                 fun () -> Printf.sprintf "F height %s exceeds 2*AREA + F + c = %s" (qs h) (qs bound)) ])))

let guar_release_lb =
  prop "guar.release.lb" "release heuristics at or above max(AREA, max r+h) (Section 3 bounds)"
    [ "release"; "ls"; "shelf" ]
    (on_release (fun inst ->
         let lb = LB.release inst in
         let ls = Placement.height (Spp_core.List_schedule.release inst) in
         let sh = Placement.height (fst (Spp_core.Release_shelf.pack inst)) in
         all_pass
           [ (Q.compare ls lb >= 0, fun () -> Printf.sprintf "LS height %s below LB %s" (qs ls) (qs lb));
             (Q.compare sh lb >= 0, fun () -> Printf.sprintf "shelf height %s below LB %s" (qs sh) (qs lb)) ]))

let guar_aptas =
  prop "guar.aptas.thm3.5"
    "APTAS: valid, height <= fractional + occurrences (Lemma 3.4), occurrences within the \
     Lemma 3.3 cap, certified lower_bound below every valid packing, no fallback rects"
    [ "release"; "aptas" ]
    (on_release (fun inst ->
         if I.Release.size inst > aptas_gate_n || inst.I.Release.k > aptas_gate_k then Skip
         else begin
           let res = Spp_core.Aptas.solve ~epsilon:Q.one inst in
           match Validate.check_release inst res.Spp_core.Aptas.placement with
           | _ :: _ as vs -> Fail (pp_violations vs)
           | [] ->
             let open Spp_core.Aptas in
             let ls = Placement.height (Spp_core.List_schedule.release inst) in
             let sh = Placement.height (fst (Spp_core.Release_shelf.pack inst)) in
             let rounding = Q.add res.fractional_height (Q.of_int res.occurrences) in
             all_pass
               [ (Q.compare res.height rounding <= 0,
                  fun () -> Printf.sprintf "height %s exceeds fractional + occurrences = %s"
                      (qs res.height) (qs rounding));
                 (res.occurrences <= res.max_occurrences,
                  fun () -> Printf.sprintf "%d occurrences exceed the (W+1)(R+1) cap %d"
                      res.occurrences res.max_occurrences);
                 (res.fallback_rects = 0,
                  fun () -> Printf.sprintf "%d rects fell through to the NFDH safety net"
                      res.fallback_rects);
                 (Q.compare res.lower_bound res.height <= 0,
                  fun () -> Printf.sprintf "certified LB %s above own height %s"
                      (qs res.lower_bound) (qs res.height));
                 (Q.compare res.lower_bound ls <= 0,
                  fun () -> Printf.sprintf "certified LB %s above LS height %s"
                      (qs res.lower_bound) (qs ls));
                 (Q.compare res.lower_bound sh <= 0,
                  fun () -> Printf.sprintf "certified LB %s above shelf height %s"
                      (qs res.lower_bound) (qs sh)) ]
         end))

(* ------------------------------------------------------------------ *)
(* Differential: exact solvers as ground truth on small instances *)

let diff_exact_prec =
  prop "diff.exact.prec"
    "on n <= 9: Normal_bb optimum is valid, sandwiched by the lower bounds, never above \
     order-search/DC/LS, and equal to the uniform DP when heights are uniform"
    [ "prec"; "bb"; "order"; "dc"; "ls" ]
    (on_prec (fun inst ->
         if I.Prec.size inst > exact_gate then Skip
         else with_exact_budget @@ fun cancel ->
           let bb = Spp_exact.Normal_bb.solve ~cancel inst in
           let opt = bb.Spp_exact.Normal_bb.height in
           match Validate.check_prec inst bb.Spp_exact.Normal_bb.placement with
           | _ :: _ as vs -> Fail ("optimal placement invalid: " ^ pp_violations vs)
           | [] ->
             let lb = LB.prec inst in
             let order =
               (Spp_exact.Order_search.best_prec ~cancel inst).Spp_exact.Order_search.height
             in
             let dc = Placement.height (fst (Spp_core.Dc.pack inst)) in
             let ls = Placement.height (Spp_core.List_schedule.prec inst) in
             let uniform_agrees =
               match Spp_core.Uniform.uniform_height inst with
               | None -> (true, fun () -> "")
               | Some _ ->
                 let dp = Spp_exact.Prec_binpack.min_height inst in
                 ( Q.equal dp opt,
                   fun () -> Printf.sprintf "uniform DP optimum %s /= normal-position optimum %s"
                       (qs dp) (qs opt) )
             in
             all_pass
               [ (Q.compare opt lb >= 0,
                  fun () -> Printf.sprintf "exact OPT %s below lower bound %s" (qs opt) (qs lb));
                 (Q.compare opt order <= 0,
                  fun () -> Printf.sprintf "exact OPT %s above order-search height %s" (qs opt) (qs order));
                 (Q.compare opt dc <= 0,
                  fun () -> Printf.sprintf "exact OPT %s above DC height %s" (qs opt) (qs dc));
                 (Q.compare opt ls <= 0,
                  fun () -> Printf.sprintf "exact OPT %s above LS height %s" (qs opt) (qs ls));
                 uniform_agrees ]))

let diff_uniform_dp =
  prop "diff.uniform.dp"
    "on uniform heights, n <= 9: the GGJY DP optimum lower-bounds F/PFF/wave and achieves \
     the absolute factor 3 of Theorem 2.6"
    [ "prec"; "f"; "pff"; "wave" ]
    (on_prec
       (uniform_only (fun _ inst ->
            if I.Prec.size inst > uniform_dp_gate then Skip
            else begin
              let opt = Spp_exact.Prec_binpack.min_height inst in
              let f = Placement.height (fst (Spp_core.Uniform.next_fit_shelf inst)) in
              let pff = Placement.height (fst (Spp_core.Uniform.prec_first_fit inst)) in
              let wave = Placement.height (fst (Spp_core.Uniform.wave_ffd inst)) in
              all_pass
                [ (Q.compare opt f <= 0,
                   fun () -> Printf.sprintf "DP optimum %s above F height %s" (qs opt) (qs f));
                  (Q.compare opt pff <= 0,
                   fun () -> Printf.sprintf "DP optimum %s above PFF height %s" (qs opt) (qs pff));
                  (Q.compare opt wave <= 0,
                   fun () -> Printf.sprintf "DP optimum %s above wave height %s" (qs opt) (qs wave));
                  (Q.compare f (Q.mul_int opt 3) <= 0,
                   fun () -> Printf.sprintf "F height %s exceeds 3*OPT = %s (Theorem 2.6)"
                       (qs f) (qs (Q.mul_int opt 3))) ]
            end)))

let diff_exact_release =
  prop "diff.exact.release"
    "on n <= 9: best bottom-left release packing is valid, above the Section 3 lower bound, \
     and never above LS/shelf"
    [ "release"; "order"; "ls"; "shelf" ]
    (on_release (fun inst ->
         if I.Release.size inst > exact_gate then Skip
         else with_exact_budget @@ fun cancel ->
           let best = Spp_exact.Order_search.best_release ~cancel inst in
           let h = best.Spp_exact.Order_search.height in
           match Validate.check_release inst best.Spp_exact.Order_search.placement with
           | _ :: _ as vs -> Fail ("order-search placement invalid: " ^ pp_violations vs)
           | [] ->
             let lb = LB.release inst in
             let ls = Placement.height (Spp_core.List_schedule.release inst) in
             let sh = Placement.height (fst (Spp_core.Release_shelf.pack inst)) in
             all_pass
               [ (Q.compare h lb >= 0,
                  fun () -> Printf.sprintf "best bottom-left %s below lower bound %s" (qs h) (qs lb));
                 (Q.compare h ls <= 0,
                  fun () -> Printf.sprintf "best bottom-left %s above LS height %s" (qs h) (qs ls));
                 (Q.compare h sh <= 0,
                  fun () -> Printf.sprintf "best bottom-left %s above shelf height %s" (qs h) (qs sh)) ]))

let sound_bb_parallel =
  prop "sound.bb.parallel"
    "on n <= 9: the parallel normal-position B&B returns the identical optimal height with 1 \
     and 4 workers (shared-incumbent pruning is schedule-independent)"
    [ "prec"; "bb" ]
    (on_prec (fun inst ->
         if I.Prec.size inst > exact_gate then Skip
         else with_exact_budget @@ fun cancel ->
           let h1 = (Spp_exact.Normal_bb.solve ~cancel ~workers:1 inst).Spp_exact.Normal_bb.height in
           let h4 = (Spp_exact.Normal_bb.solve ~cancel ~workers:4 inst).Spp_exact.Normal_bb.height in
           if Q.equal h1 h4 then Pass
           else Fail (Printf.sprintf "1-worker optimum %s /= 4-worker optimum %s" (qs h1) (qs h4))))

(* ------------------------------------------------------------------ *)
(* Differential: fast numeric tower vs the reference implementation *)

(* Deterministic operand stream for num.diff: an xorshift PRNG seeded from
   the instance text, mixed with hand-picked edge operands sitting on the
   small/big representation boundary (limb multiples, +/-max_int, near
   min_int), negatives and zero. *)
let num_edge_operands =
  [| 0; 1; -1; 2; -2; 3; 32767; 32768; -32768; -32769; (1 lsl 30) - 1; 1 lsl 30;
     -(1 lsl 30); (1 lsl 45) - 1; 1 lsl 45; -(1 lsl 45); max_int; -max_int;
     max_int - 1; min_int + 1; 1000000007; -999999937 |]

let num_diff =
  prop "num.diff"
    "fast bigint/rational arithmetic (small-int representation, gcd fast paths) agrees \
     operation-for-operation with the reference sign+magnitude implementation over a seeded \
     operand stream covering limb boundaries, negatives and zero"
    [ "prec"; "release"; "num" ]
    (fun parsed ->
      let module B = Spp_num.Bigint in
      let module RB = Spp_num.Reference.Bigint in
      let module RR = Spp_num.Reference.Rat in
      let state = ref (stream_seed_of parsed lor 1) in
      let next () =
        (* xorshift64*; positive 62-bit output. *)
        let x = !state in
        let x = x lxor (x lsl 13) in
        let x = x lxor (x lsr 7) in
        let x = x lxor (x lsl 17) in
        state := x;
        (x * 0x2545F4914F6CDD1D) land max_int
      in
      let operand () =
        match next () mod 5 with
        | 0 -> string_of_int num_edge_operands.(next () mod Array.length num_edge_operands)
        | 1 -> string_of_int (next () mod 97 - 48)
        | 2 -> string_of_int (next () - (max_int / 2))
        | _ ->
          (* Multi-limb decimal, up to ~40 digits, random sign. *)
          let len = 1 + (next () mod 40) in
          let b = Buffer.create (len + 1) in
          if next () land 1 = 1 then Buffer.add_char b '-';
          Buffer.add_char b (Char.chr (Char.code '1' + (next () mod 9)));
          for _ = 2 to len do
            Buffer.add_char b (Char.chr (Char.code '0' + (next () mod 10)))
          done;
          Buffer.contents b
      in
      let failure = ref None in
      let check op expect got =
        if !failure = None && expect <> got then
          failure := Some (Printf.sprintf "%s: fast %S /= reference %S" op got expect)
      in
      (let i = ref 0 in
       while !failure = None && !i < 32 do
         incr i;
         let sx = operand () and sy = operand () in
         let x = B.of_string sx and y = B.of_string sy in
         let rx = RB.of_string sx and ry = RB.of_string sy in
         let ctx op = Printf.sprintf "%s on (%s, %s)" op sx sy in
         check (ctx "Bigint.add") (RB.to_string (RB.add rx ry)) (B.to_string (B.add x y));
         check (ctx "Bigint.sub") (RB.to_string (RB.sub rx ry)) (B.to_string (B.sub x y));
         check (ctx "Bigint.mul") (RB.to_string (RB.mul rx ry)) (B.to_string (B.mul x y));
         check (ctx "Bigint.compare")
           (string_of_int (RB.compare rx ry)) (string_of_int (B.compare x y));
         check (ctx "Bigint.gcd") (RB.to_string (RB.gcd rx ry)) (B.to_string (B.gcd x y));
         if not (B.is_zero y) then begin
           let q, r = B.divmod x y and rq, rr = RB.divmod rx ry in
           check (ctx "Bigint.divmod.q") (RB.to_string rq) (B.to_string q);
           check (ctx "Bigint.divmod.r") (RB.to_string rr) (B.to_string r)
         end;
         (* Rationals from the same operands (nonzero denominators). *)
         let sd = operand () and se = operand () in
         let d = B.of_string sd and e = B.of_string se in
         if not (B.is_zero d || B.is_zero e) then begin
           let a = Q.make x d and b = Q.make y e in
           let ra = RR.make rx (RB.of_string sd) and rb = RR.make ry (RB.of_string se) in
           let ctx op = Printf.sprintf "%s on (%s/%s, %s/%s)" op sx sd sy se in
           (* The den > 0, coprime invariant, through the fast constructors. *)
           if !failure = None && B.sign (Q.den a) <= 0 then
             failure := Some (ctx "Rat.make: non-positive denominator");
           if !failure = None && not (B.equal (B.gcd (Q.num a) (Q.den a)) B.one) then
             failure := Some (ctx "Rat.make: non-coprime parts");
           check (ctx "Rat.add") (RR.to_string (RR.add ra rb)) (Q.to_string (Q.add a b));
           check (ctx "Rat.sub") (RR.to_string (RR.sub ra rb)) (Q.to_string (Q.sub a b));
           check (ctx "Rat.mul") (RR.to_string (RR.mul ra rb)) (Q.to_string (Q.mul a b));
           check (ctx "Rat.compare")
             (string_of_int (RR.compare ra rb)) (string_of_int (Q.compare a b));
           check (ctx "Rat.floor") (RB.to_string (RR.floor ra)) (B.to_string (Q.floor a));
           check (ctx "Rat.ceil") (RB.to_string (RR.ceil ra)) (B.to_string (Q.ceil a));
           if not (RR.is_zero rb) then
             check (ctx "Rat.div") (RR.to_string (RR.div ra rb)) (Q.to_string (Q.div a b))
         end
       done);
      match !failure with None -> Pass | Some msg -> Fail msg)

(* ------------------------------------------------------------------ *)
(* Metamorphic *)

let meta_relabel =
  prop "meta.relabel"
    "strictly monotone id relabeling preserves DC, LS and F heights exactly (all tie-breaks \
     are order-based)"
    [ "prec"; "dc"; "ls"; "f" ]
    (on_prec (fun inst ->
         let inst' = Mutate.relabel_prec ~f:(fun id -> (2 * id) + 3) inst in
         let dc = Placement.height (fst (Spp_core.Dc.pack inst))
         and dc' = Placement.height (fst (Spp_core.Dc.pack inst')) in
         let ls = Placement.height (Spp_core.List_schedule.prec inst)
         and ls' = Placement.height (Spp_core.List_schedule.prec inst') in
         let f_pair =
           match Spp_core.Uniform.uniform_height inst with
           | None -> None
           | Some _ ->
             Some
               ( Placement.height (fst (Spp_core.Uniform.next_fit_shelf inst)),
                 Placement.height (fst (Spp_core.Uniform.next_fit_shelf inst')) )
         in
         all_pass
           ([ (Q.equal dc dc', fun () -> Printf.sprintf "DC height changed %s -> %s" (qs dc) (qs dc'));
              (Q.equal ls ls', fun () -> Printf.sprintf "LS height changed %s -> %s" (qs ls) (qs ls')) ]
           @
           match f_pair with
           | None -> []
           | Some (f, f') ->
             [ (Q.equal f f', fun () -> Printf.sprintf "F height changed %s -> %s" (qs f) (qs f')) ])))

let meta_edge_drop =
  prop "meta.edge.drop"
    "removing a precedence edge never raises the critical path, and never raises the exact \
     optimum on n <= 9"
    [ "prec"; "bb" ]
    (on_prec (fun inst ->
         match Dag.edges inst.I.Prec.dag with
         | [] -> Skip
         | e :: _ ->
           let inst' = Mutate.drop_edge inst e in
           let cp = LB.critical_path inst and cp' = LB.critical_path inst' in
           let exact_mono =
             if I.Prec.size inst > exact_gate then (true, fun () -> "")
             else begin
               (* The critical-path check below is cheap and still runs when
                  the exact solver blows its fuse on this pair. *)
               let cancel = Spp_util.Cancel.with_deadline_ms exact_budget_ms in
               match
                 ( (Spp_exact.Normal_bb.solve ~cancel inst).Spp_exact.Normal_bb.height,
                   (Spp_exact.Normal_bb.solve ~cancel inst').Spp_exact.Normal_bb.height )
               with
               | h, h' ->
                 ( Q.compare h' h <= 0,
                   fun () -> Printf.sprintf "OPT rose from %s to %s after dropping edge (%d,%d)"
                       (qs h) (qs h') (fst e) (snd e) )
               | exception Spp_util.Cancel.Cancelled -> (true, fun () -> "")
             end
           in
           all_pass
             [ (Q.compare cp' cp <= 0,
                fun () -> Printf.sprintf "critical path rose from %s to %s after dropping (%d,%d)"
                    (qs cp) (qs cp') (fst e) (snd e));
               exact_mono ]))

let meta_release_slacken =
  prop "meta.release.slacken"
    "halving (and zeroing) release times never raises the Section 3 lower bound, and the \
     heuristics stay sound on the slackened instances"
    [ "release"; "ls"; "shelf" ]
    (on_release (fun inst ->
         let half = Mutate.slacken_releases ~factor:(Q.of_ints 1 2) inst in
         let zero = Mutate.slacken_releases ~factor:Q.zero inst in
         let lb = LB.release inst and lb_h = LB.release half and lb_z = LB.release zero in
         let sound i =
           match Validate.check_release i (Spp_core.List_schedule.release i) with
           | [] -> (
             match Validate.check_release i (fst (Spp_core.Release_shelf.pack i)) with
             | [] -> (true, fun () -> "")
             | vs -> (false, fun () -> "shelf on slackened: " ^ pp_violations vs))
           | vs -> (false, fun () -> "LS on slackened: " ^ pp_violations vs)
         in
         all_pass
           [ (Q.compare lb_h lb <= 0,
              fun () -> Printf.sprintf "LB rose from %s to %s after halving releases" (qs lb) (qs lb_h));
             (Q.compare lb_z lb_h <= 0,
              fun () -> Printf.sprintf "LB rose from %s to %s after zeroing releases" (qs lb_h) (qs lb_z));
             sound half; sound zero ]))

(* ------------------------------------------------------------------ *)
(* Online simulation *)

let pp_sim_violations vs =
  let shown = List.filteri (fun i _ -> i < 3) vs in
  Printf.sprintf "%d violation(s): %s" (List.length vs)
    (String.concat "; " (List.map (Format.asprintf "%a" Spp_sim.Sim.pp_violation) shown))

(* Shared skeleton: run the simulator, check the segment log with the
   independent validator, compare the makespan against the Section 3
   lower bound exactly (competitive ratio >= 1 in rationals — AREA and
   max r+h hold even for migration schedules), and when the run never
   moved a task, cross-check through the offline placement oracle. *)
let sim_checks ?repack_threshold packer inst extra =
  let r = Spp_sim.Sim.run ?repack_threshold ~packer inst in
  match Spp_sim.Sim.check inst r with
  | _ :: _ as vs -> Fail (pp_sim_violations vs)
  | [] ->
    let lb = LB.release inst in
    let oracle =
      match Spp_sim.Sim.to_placement inst r with
      | None ->
        ( r.Spp_sim.Sim.moves > 0,
          fun () -> "no offline placement view even though no task was moved" )
      | Some p -> (
        match Validate.check_release inst p with
        | [] -> (true, fun () -> "")
        | vs -> (false, fun () -> "offline placement oracle: " ^ pp_violations vs))
    in
    all_pass
      ([ (Q.compare r.Spp_sim.Sim.makespan lb >= 0,
          fun () -> Printf.sprintf "online makespan %s below lower bound %s"
              (qs r.Spp_sim.Sim.makespan) (qs lb));
         oracle ]
      @ extra r)

let sound_sim_ff =
  prop "sound.sim.ff"
    "online first-fit run: segment log passes the independent sim validator, makespan at or \
     above the Section 3 lower bound (and the APTAS certified bound on small instances), and \
     the move-free run passes Validate.check_release as a placement"
    [ "release"; "sim" ]
    (on_release (fun inst ->
         sim_checks Spp_sim.Online.First_fit inst (fun r ->
             if I.Release.size inst > aptas_gate_n || inst.I.Release.k > aptas_gate_k then []
             else begin
               let res = Spp_core.Aptas.solve ~epsilon:Q.one inst in
               [ (Q.compare res.Spp_core.Aptas.lower_bound r.Spp_sim.Sim.makespan <= 0,
                  fun () -> Printf.sprintf "APTAS certified LB %s above online makespan %s"
                      (qs res.Spp_core.Aptas.lower_bound) (qs r.Spp_sim.Sim.makespan)) ]
             end)))

let sound_sim_buffered =
  prop "sound.sim.buffered"
    "online buffered-lookahead run is sound and never places anything before its release"
    [ "release"; "sim" ]
    (on_release (fun inst ->
         sim_checks (Spp_sim.Online.Buffered Spp_sim.Online.default_lookahead) inst (fun _ -> [])))

let sound_sim_repack =
  prop "sound.sim.repack"
    "with repacking at threshold 1/4: still sound across migrations, every repack strictly \
     reduces fragmentation, and the per-cell cost accounting adds up"
    [ "release"; "sim" ]
    (on_release (fun inst ->
         sim_checks ~repack_threshold:(Q.of_ints 1 4) Spp_sim.Online.First_fit inst (fun r ->
             let open Spp_sim.Sim in
             [ (List.for_all (fun e -> Q.compare e.frag_after e.frag_before < 0) r.repacks,
                fun () -> "a repack did not strictly reduce fragmentation");
               (r.cells_migrated = List.fold_left (fun a e -> a + e.cells) 0 r.repacks,
                fun () -> Printf.sprintf "cells_migrated %d /= sum of per-repack cells"
                    r.cells_migrated);
               (Q.equal r.migration_cost (Q.of_int r.cells_migrated),
                fun () -> Printf.sprintf "migration cost %s /= cells %d at unit cost"
                    (qs r.migration_cost) r.cells_migrated) ])))

let sim_stream =
  prop "sim.stream"
    "the arrival stream is a pure function of the stream seed: regenerating the trace and \
     re-deriving the arrival order from the replayed seed reproduce it bit for bit"
    [ "prec"; "release"; "sim" ]
    (fun parsed ->
      let seed = stream_seed_of parsed in
      let spec = Spp_sim.Arrivals.Poisson 1.5 in
      let t1 = Spp_sim.Arrivals.trace ~n:16 ~k:6 ~seed spec in
      let t2 = Spp_sim.Arrivals.trace ~n:16 ~k:6 ~seed spec in
      let s1, w1 = Spp_sim.Arrivals.of_instance t1 in
      let s2, w2 = Spp_sim.Arrivals.of_instance t2 in
      all_pass
        [ (Io.release_to_string t1 = Io.release_to_string t2,
           fun () -> Printf.sprintf "trace for seed %d not reproducible" seed);
          (s1 = s2 && w1 = w2,
           fun () -> Printf.sprintf "arrival stream for seed %d not reproducible" seed);
          (List.length s1 = 16, fun () -> "trace dropped tasks") ])

(* ------------------------------------------------------------------ *)
(* Differential: sweep validators vs the pairwise reference loops *)

(* The first position where two violation lists differ, for messages. *)
let first_difference pp got expect =
  let rec go i = function
    | g :: gs, e :: es ->
      if g = e then go (i + 1) (gs, es) else Printf.sprintf "at %d: %s vs %s" i (pp g) (pp e)
    | g :: _, [] -> Printf.sprintf "at %d: %s vs nothing" i (pp g)
    | [], e :: _ -> Printf.sprintf "at %d: nothing vs %s" i (pp e)
    | [], [] -> "nowhere"
  in
  go 0 (got, expect)

(* Each [(label, got, expect)] must agree exactly, order included. *)
let agreements pp cases =
  List.map
    (fun (label, got, expect) ->
      ( got = expect,
        fun () ->
          Printf.sprintf "%s: sweep found %d violation(s), reference %d; first difference %s" label
            (List.length got) (List.length expect) (first_difference pp got expect) ))
    cases

(* Every height and release times [factor]. A factor below 1 keeps
   release heights <= 1, and scaling y by a constant leaves the search
   tree as it is. *)
let scale_y factor parsed =
  let rect (r : Rect.t) = Rect.make ~id:r.Rect.id ~w:r.Rect.w ~h:(Q.mul r.Rect.h factor) in
  match parsed with
  | Io.Prec inst -> Io.Prec (I.Prec.make (List.map rect inst.I.Prec.rects) inst.I.Prec.dag)
  | Io.Release inst ->
    Io.Release
      (I.Release.make ~k:inst.I.Release.k
         (List.map
            (fun (t : I.Release.task) ->
              { I.Release.rect = rect t.I.Release.rect; release = Q.mul t.I.Release.release factor })
            inst.I.Release.tasks))

(* [inst] with every height and release times [factor] (below 1). *)
let scale_times factor (inst : I.Release.t) =
  match scale_y factor (Io.Release inst) with Io.Release inst -> inst | Io.Prec _ -> assert false

(* p/(p+1) for p = 2^20 - 3 keeps a kernel on its grid with large
   values; for p = 2^61 - 1 the values pass 2^60, so it falls back to
   rationals. Each copy says whether the kernel must stay on its grid. *)
let scaled =
  [ ("y times p/(p+1), p = 2^20 - 3", 1_048_573, true);
    ("y times p/(p+1), p = 2^61 - 1", (1 lsl 61) - 1, false) ]

let times p = Q.of_ints p (p + 1)

(* The path a kernel took on a scaled copy: on its grid when [expect],
   off it otherwise, unless nothing large was scaled ([empty]). *)
let path label kernel ~expect ~empty on_grid =
  ( (if expect then on_grid else (not on_grid) || empty),
    fun () -> Printf.sprintf "%s: %s on its grid %b" label kernel on_grid )

(* A valid placement and seeded corruptions of it, each aimed at a tie or
   a boundary of the sweep or the strip. The items a corruption keeps keep
   their order and ids, so the lists stay comparable position by position. *)
let corrupt_placement rng p =
  let items = Placement.items p in
  let n = List.length items in
  if n = 0 then [ ("as packed", p) ]
  else begin
    let i = Spp_util.Prng.int rng n in
    let nb = List.nth items (Spp_util.Prng.int rng n) in
    let nx = nb.Placement.pos.Placement.x and ny = nb.Placement.pos.Placement.y in
    let at (it : Placement.item) x y = { it with Placement.pos = { Placement.x; y } } in
    let move f = Placement.of_items (List.mapi (fun k it -> if k = i then f it else it) items) in
    let half q = Q.div q Q.two in
    let w (it : Placement.item) = it.Placement.rect.Rect.w in
    let h (it : Placement.item) = it.Placement.rect.Rect.h in
    let x (it : Placement.item) = it.Placement.pos.Placement.x in
    let y (it : Placement.item) = it.Placement.pos.Placement.y in
    (* Copies of the i-th item under ids the instance lacks, listed out
       of id order. *)
    let top = List.fold_left (fun m (it : Placement.item) -> max m it.Placement.rect.Rect.id) 0 items in
    let extra d =
      let it = List.nth items i in
      { it with Placement.rect = { it.Placement.rect with Rect.id = top + d } }
    in
    [ ("as packed", p);
      ("onto a neighbour", move (fun it -> at it nx ny));
      ("past x = 1", move (fun it -> at it (Q.sub Q.one (half (w it))) (y it)));
      ("left of x = 0", move (fun it -> at it (Q.neg (half (w it))) (y it)));
      ("below y = 0", move (fun it -> at it (x it) (Q.neg (half (h it)))));
      ("touching in x", move (fun it -> at it (Q.add nx (w nb)) ny));
      ("touching in y", move (fun it -> at it nx (Q.add ny (h nb))));
      ("flush with x = 1", move (fun it -> at it (Q.sub Q.one (w it)) (y it)));
      ("one dropped", Placement.of_items (List.filteri (fun k _ -> k <> i) items));
      ("all at y = 0", Placement.of_items (List.map (fun it -> at it (x it) Q.zero) items));
      ("extra rects", Placement.of_items (items @ List.map extra [ 40; 7; 23; 1000; 3 ])) ]
  end

(* [p] with every y and height times [factor], as [scale_y] scales its
   instance: a valid placement stays valid. *)
let scale_placement factor p =
  Placement.of_items
    (List.map
       (fun (it : Placement.item) ->
         let r = it.Placement.rect in
         { Placement.rect = Rect.make ~id:r.Rect.id ~w:r.Rect.w ~h:(Q.mul r.Rect.h factor);
           pos = { it.Placement.pos with Placement.y = Q.mul it.Placement.pos.Placement.y factor } })
       (Placement.items p))

let diff_validate =
  prop "diff.validate"
    "Validate.check_prec / check_release (on the integer grids, one sweep over y, one id \
     table) return exactly the reference's violation list, order included, on LS and DC \
     packings and on seeded corruptions: a rectangle moved onto a neighbour, pushed out of the \
     strip, flush with its right edge, touching one exactly, dropped, copied under ids the \
     instance lacks, and everything lowered to y = 0; also with every height, release and y \
     times p/(p+1), where p = 2^20 - 3 must stay on the grids and p = 2^61 - 1 must fall back \
     to rationals"
    [ "prec"; "release"; "validate" ]
    (fun parsed ->
      let rng = Spp_util.Prng.create (stream_seed_of parsed) in
      let pp = Format.asprintf "%a" Validate.pp_violation in
      let packings =
        match parsed with
        | Io.Prec inst ->
          [ ("ls", Spp_core.List_schedule.prec inst); ("dc", fst (Spp_core.Dc.pack inst)) ]
        | Io.Release inst -> [ ("ls", Spp_core.List_schedule.release inst) ]
      in
      (* [(label, placement, on the grids, check, reference)] per corruption. *)
      let cases version parsed p =
        List.map
          (fun (label, p') ->
            let label = version ^ ", " ^ label in
            match parsed with
            | Io.Prec inst ->
              ( label, p', Placement.on_grid p', Validate.check_prec inst p',
                Validate.Reference.check_prec inst p' )
            | Io.Release inst ->
              ( label, p', Validate.on_grid_release inst p', Validate.check_release inst p',
                Validate.Reference.check_release inst p' ))
          (corrupt_placement rng p)
      in
      let versions =
        ("as generated", parsed, Fun.id, None)
        :: List.map
             (fun (version, p, expect) ->
               (version, scale_y (times p) parsed, scale_placement (times p), Some expect))
             scaled
      in
      all_pass
        (List.concat_map
           (fun (version, parsed, scale, expect) ->
             List.concat_map
               (fun (name, packing) ->
                 List.concat_map
                   (fun (label, p', on_grid, got, reference) ->
                     agreements pp [ (label, got, reference) ]
                     @
                     match expect with
                     | None -> []
                     | Some expect ->
                       [ path label "the check" ~expect ~empty:(Placement.size p' = 0) on_grid ])
                   (cases (name ^ ", " ^ version) parsed (scale packing)))
               packings)
           versions))

(* A sound segment log and seeded corruptions of it. *)
let corrupt_log rng (r : Spp_sim.Sim.report) =
  let module S = Spp_sim.Strip_state in
  let segs = Array.of_list r.Spp_sim.Sim.segments in
  let n = Array.length segs in
  let with_segs f = { r with Spp_sim.Sim.segments = List.mapi f (Array.to_list segs) } in
  if n = 0 then [ ("as run", r) ]
  else begin
    let i = Spp_util.Prng.int rng n in
    let stretch = Q.of_ints (1 + Spp_util.Prng.int rng 4) 2 in
    let one f = with_segs (fun k s -> if k = i then f s else s) in
    (* Two ids the run does not have: one segment of [a] after the i-th,
       then [b] and [a] again at the end. *)
    let a = 1 + Array.fold_left (fun m s -> max m s.S.seg_id) min_int segs in
    let phantom id = { segs.(i) with S.seg_id = id } in
    let phantoms =
      List.concat (List.mapi (fun k s -> if k = i then [ s; phantom a ] else [ s ]) (Array.to_list segs))
      @ [ phantom (a + 1); phantom a ]
    in
    (* A copy of the i-th segment one column narrower, logged right after
       it: two segments of one task with the same start. *)
    let doubled =
      List.concat
        (List.mapi
           (fun k s -> if k = i then [ s; { s with S.seg_cols = s.S.seg_cols - 1 } ] else [ s ])
           (Array.to_list segs))
    in
    [ ("as run", r);
      ("all on column 0", with_segs (fun _ s -> { s with S.seg_lo = 0 }));
      ("one doubled, a column narrower", { r with Spp_sim.Sim.segments = doubled });
      ("one zero-length", one (fun s -> { s with S.seg_to = s.S.seg_from }));
      ("all zero-length", with_segs (fun _ s -> { s with S.seg_to = s.S.seg_from }));
      ("one stretched", one (fun s -> { s with S.seg_to = Q.add s.S.seg_to stretch }));
      ("all stretched", with_segs (fun _ s -> { s with S.seg_to = Q.add s.S.seg_to stretch }));
      ("phantom tasks", { r with Spp_sim.Sim.segments = phantoms }) ]
  end

(* [r] with every segment endpoint times [factor], as [scale_y] scales
   its instance: a sound log stays sound. *)
let scale_report factor (r : Spp_sim.Sim.report) =
  let module S = Spp_sim.Strip_state in
  { r with
    Spp_sim.Sim.segments =
      List.map
        (fun (g : S.segment) ->
          { g with S.seg_from = Q.mul g.S.seg_from factor; seg_to = Q.mul g.S.seg_to factor })
        r.Spp_sim.Sim.segments }

let diff_sim_check =
  prop "diff.sim.check"
    "Sim.check (on integer ticks, one sweep over time) returns exactly the reference's \
     violation list, order included, on first-fit and repacking segment logs and on seeded \
     corruptions: every segment on column 0, a segment logged twice with one column fewer, \
     segments made zero-length or stretched, and segments of tasks the instance does not \
     have; also with every height, release and endpoint times p/(p+1), where p = 2^20 - 3 \
     must stay on the ticks and p = 2^61 - 1 must fall back to rationals"
    [ "release"; "validate" ]
    (on_release (fun inst ->
         let rng = Spp_util.Prng.create (stream_seed_of (Io.Release inst)) in
         let pp = Format.asprintf "%a" Spp_sim.Sim.pp_violation in
         let runs =
           [ ("first-fit", Spp_sim.Sim.run ~packer:Spp_sim.Online.First_fit inst);
             ( "repack",
               Spp_sim.Sim.run ~repack_threshold:(Q.of_ints 1 4) ~packer:Spp_sim.Online.First_fit inst
             ) ]
         in
         let versions =
           ("as generated", inst, Fun.id, None)
           :: List.map
                (fun (version, p, expect) ->
                  (version, scale_times (times p) inst, scale_report (times p), Some expect))
                scaled
         in
         all_pass
           (List.concat_map
              (fun (version, inst, scale, expect) ->
                List.concat_map
                  (fun (name, r) ->
                    List.concat_map
                      (fun (label, r') ->
                        let label = String.concat ", " [ name; version; label ] in
                        agreements pp
                          [ (label, Spp_sim.Sim.check inst r', Spp_sim.Sim.Reference.check inst r') ]
                        @
                        match expect with
                        | None -> []
                        | Some expect ->
                          [ path label "Sim.check" ~expect ~empty:(inst.I.Release.tasks = [])
                              (Spp_sim.Sim.check_on_ticks inst r') ])
                      (corrupt_log rng (scale r)))
                  runs)
              versions)))

(* ------------------------------------------------------------------ *)
(* Differential: the integer order-search kernel vs the rational search *)

(* [search ()] with the ambient profile it reported. *)
let profiled search =
  Spp_obs.Profile.reset ();
  let out = search () in
  (out, Spp_obs.Profile.read ())

(* The ids of [p]'s items in list order: a view the id-sorted placement
   text does not show. *)
let item_order p =
  String.concat " "
    (List.map (fun (it : Placement.item) -> string_of_int it.Placement.rect.Rect.id) (Placement.items p))

let order_versions parsed =
  ("as generated", parsed) :: List.map (fun (label, p, _) -> (label, scale_y (times p) parsed)) scaled

let diff_order =
  prop "diff.order"
    "on n <= 8: Order_search (the integer kernel) returns exactly what Order_search.Reference \
     (lists and rationals) returns: height, placement text, item order, nodes expanded and \
     profile node and pruned counts, on the instance as generated and with every height and \
     release scaled by p/(p+1) for p = 2^20 - 3 (large integers) and p = 2^61 - 1 (the \
     fallback); the scaled searches expand the same number of nodes"
    [ "prec"; "release"; "order"; "kernel" ]
    (fun parsed ->
      let n =
        match parsed with Io.Prec inst -> I.Prec.size inst | Io.Release inst -> I.Release.size inst
      in
      if n > engine_gate then Skip
      else with_exact_budget @@ fun cancel ->
        let module O = Spp_exact.Order_search in
        (* Each view of a result as text; the placement text is sorted by
           id, so the item list's own order (newest first) is a view too. *)
        let views =
          [ ("height", fun ((o : O.outcome), _) -> qs o.O.height);
            ("placement", fun (o, _) -> Io.placement_to_string o.O.placement);
            ("item order", fun (o, _) -> item_order o.O.placement);
            ("nodes", fun (o, _) -> string_of_int o.O.nodes_expanded);
            ( "profile nodes/pruned",
              fun (_, (p : Spp_obs.Profile.snapshot)) ->
                Printf.sprintf "%d/%d" p.Spp_obs.Profile.bb_nodes p.Spp_obs.Profile.bb_pruned ) ]
        in
        let compare_on (label, parsed) =
          let fast, slow =
            match parsed with
            | Io.Prec inst ->
              (profiled (fun () -> O.best_prec ~cancel inst),
               profiled (fun () -> O.Reference.best_prec ~cancel inst))
            | Io.Release inst ->
              (profiled (fun () -> O.best_release ~cancel inst),
               profiled (fun () -> O.Reference.best_release ~cancel inst))
          in
          ( (fst fast).O.nodes_expanded,
            List.map
              (fun (what, view) ->
                ( view fast = view slow,
                  fun () ->
                    Printf.sprintf "%s: %s %s, reference %s" label what (view fast) (view slow) ))
              views )
        in
        let results = List.map compare_on (order_versions parsed) in
        let nodes = List.map fst results in
        all_pass
          (List.concat_map snd results
          @ [ (List.for_all (( = ) (List.hd nodes)) nodes,
               fun () ->
                 Printf.sprintf "scaling y changed the tree: %s nodes"
                   (String.concat " / " (List.map string_of_int nodes))) ]))

(* ------------------------------------------------------------------ *)
(* Differential: the integer B&B kernel vs the rational search *)

let diff_bb =
  prop "diff.bb"
    "on n <= 9: Normal_bb.solve (the integer kernel) returns exactly what Normal_bb.Rational \
     returns: height, placement text, item order, nodes expanded and profile node, pruned and \
     dominated counts, with dominance on and off, on the instance as generated and with every \
     height scaled by p/(p+1) for p = 2^20 - 3 (on the grid) and p = 2^61 - 1 (the rational \
     path, by Normal_bb.on_grid); the scaled searches expand the same number of nodes"
    [ "prec"; "bb" ]
    (on_prec (fun inst ->
         if I.Prec.size inst > exact_gate then Skip
         else with_exact_budget @@ fun cancel ->
           let module B = Spp_exact.Normal_bb in
           let views =
             [ ("height", fun ((o : B.outcome), _) -> qs o.B.height);
               ("placement", fun (o, _) -> Io.placement_to_string o.B.placement);
               ("item order", fun (o, _) -> item_order o.B.placement);
               ("nodes", fun (o, _) -> string_of_int o.B.nodes_expanded);
               ( "profile nodes/pruned/dominated",
                 fun (_, (p : Spp_obs.Profile.snapshot)) ->
                   Printf.sprintf "%d/%d/%d" p.Spp_obs.Profile.bb_nodes p.Spp_obs.Profile.bb_pruned
                     p.Spp_obs.Profile.bb_dominated ) ]
           in
           let versions =
             ("as generated", inst, None)
             :: List.map
                  (fun (label, p, expect) ->
                    match scale_y (times p) (Io.Prec inst) with
                    | Io.Prec scaled -> (label, scaled, Some expect)
                    | Io.Release _ -> assert false)
                  scaled
           in
           let compare_on dominance (label, inst, expect) =
             let label = Printf.sprintf "%s, dominance %b" label dominance in
             let fast = profiled (fun () -> B.solve ~cancel ~dominance inst) in
             let slow = profiled (fun () -> B.Rational.solve ~cancel ~dominance inst) in
             ( (fst fast).B.nodes_expanded,
               (match expect with
                | None -> []
                | Some expect ->
                  [ path label "B&B" ~expect ~empty:(inst.I.Prec.rects = []) (B.on_grid inst) ])
               @ List.map
                   (fun (what, view) ->
                     ( view fast = view slow,
                       fun () ->
                         Printf.sprintf "%s: %s %s, rational %s" label what (view fast) (view slow) ))
                   views )
           in
           let checks dominance =
             let results = List.map (compare_on dominance) versions in
             let nodes = List.map fst results in
             List.concat_map snd results
             @ [ (List.for_all (( = ) (List.hd nodes)) nodes,
                  fun () ->
                    Printf.sprintf "dominance %b: scaling y changed the tree: %s nodes" dominance
                      (String.concat " / " (List.map string_of_int nodes))) ]
           in
           all_pass (checks true @ checks false)))

(* ------------------------------------------------------------------ *)
(* Differential: the simulator on ticks vs the rational loop *)

(* Every field of a report, then each repack event and each segment, in
   order, one line each. *)
let report_lines (r : Spp_sim.Sim.report) =
  let open Spp_sim.Sim in
  let module S = Spp_sim.Strip_state in
  Printf.sprintf
    "k %d, tasks %d, widened %d, makespan %s, total wait %s, max pending %d, placements %d, \
     moves %d, cells migrated %d, migration cost %s, frag peak %s, frag mean %s"
    r.k r.tasks r.widened (qs r.makespan) (qs r.total_wait) r.max_pending r.placements r.moves
    r.cells_migrated (qs r.migration_cost) (qs r.frag_peak) (qs r.frag_mean)
  :: List.map
       (fun e ->
         Printf.sprintf "repack at %s: frag %s -> %s, %d moved, %d cells" (qs e.at)
           (qs e.frag_before) (qs e.frag_after) e.moved e.cells)
       r.repacks
  @ List.map
      (fun (g : S.segment) ->
        Printf.sprintf "segment %d: %d cols at %d over [%s, %s)" g.S.seg_id g.S.seg_cols g.S.seg_lo
          (qs g.S.seg_from) (qs g.S.seg_to))
      r.segments

(* A release instance from [rng]: n in 32..400 tasks on K in 1..16
   columns (63..80 in one case out of 8), heights in quarters or thirds,
   Poisson or burst releases in halves at 1, 2 or 4 tasks per unit of time,
   and one width in four on a 2K grid, so odd numerators need widening. *)
let sim_instance rng =
  let module P = Spp_util.Prng in
  let n = P.int_in rng 32 400 in
  let k = if P.int rng 8 = 0 then P.int_in rng 63 80 else P.int_in rng 1 16 in
  let rate = float_of_int (1 lsl P.int rng 3) in
  let burst = if P.bool rng then P.int_in rng 2 8 else 1 in
  let t = ref 0.0 in
  let task id =
    if id mod burst = 0 then t := !t +. P.exponential rng ~rate:(rate /. float_of_int burst);
    let den = if P.bool rng then 4 else 3 in
    let w =
      if P.int rng 4 = 0 then Q.of_ints (P.int_in rng 2 (2 * k)) (2 * k)
      else Q.of_ints (P.int_in rng 1 k) k
    in
    { I.Release.rect = Rect.make ~id ~w ~h:(Q.of_ints (P.int_in rng 1 den) den);
      release = Q.of_ints (int_of_float (Float.round (!t *. 2.0))) 2 }
  in
  ( Printf.sprintf "drawn n = %d, K = %d, %s at %g" n k
      (if burst = 1 then "poisson" else Printf.sprintf "bursts of %d" burst) rate,
    I.Release.make ~k (List.init n task) )

(* The scale s of [inst] (the lcm of its height and release
   denominators) and its horizon (max release + sum of heights) in ticks
   of 1/s, as rationals. *)
let sim_horizon (inst : I.Release.t) =
  let module B = Spp_num.Bigint in
  let tasks = inst.I.Release.tasks in
  let h (t : I.Release.task) = t.I.Release.rect.Rect.h and r (t : I.Release.task) = t.I.Release.release in
  let lcm a b = B.div (B.mul a b) (B.gcd a b) in
  let s = List.fold_left (fun s t -> lcm (lcm s (Q.den (h t))) (Q.den (r t))) B.one tasks in
  let last = List.fold_left (fun acc t -> Q.max acc (r t)) Q.zero tasks in
  (s, Q.mul (Q.of_bigint s) (List.fold_left (fun acc t -> Q.add acc (h t)) last tasks))

let two_60 = Q.of_bigint (Spp_num.Bigint.pow Spp_num.Bigint.two 60)

(* The guard sim.mli states, on rationals: s fits a native int, and the
   horizon in ticks times max(n, k), k·k, |a|·k and b·k for the threshold
   a/b, and each width's numerator times k are at most 2^60, each width's
   denominator fitting a native int. *)
let sim_guard ?repack_threshold (inst : I.Release.t) =
  let module B = Spp_num.Bigint in
  let k = Q.of_int inst.I.Release.k in
  let within q = Q.compare (Q.abs q) two_60 <= 0 in
  let native b = B.compare b (B.of_int max_int) <= 0 in
  let times_k b = within (Q.mul (Q.of_bigint b) k) in
  let s, horizon = sim_horizon inst in
  native s
  && within (Q.mul horizon (Q.max k (Q.of_int (I.Release.size inst))))
  && within (Q.mul k k)
  && (match repack_threshold with None -> true | Some q -> times_k (Q.num q) && times_k (Q.den q))
  && List.for_all
       (fun (t : I.Release.task) ->
         let w = t.I.Release.rect.Rect.w in
         native (Q.den w) && times_k (Q.num w))
       inst.I.Release.tasks

(* Eight settings: every packer, each with a threshold (none, 1/100, 1/8,
   1/4, 1/2, rotated by a drawn offset), a cost per cell of 1 or 3/2 and
   an exact repack bound of 2 or 7. *)
let sim_settings rng =
  let thresholds = [| None; Some (Q.of_ints 1 100); Some (Q.of_ints 1 8); Some (Q.of_ints 1 4);
                      Some (Q.of_ints 1 2) |] in
  let offset = Spp_util.Prng.int rng 5 in
  List.mapi
    (fun i packer ->
      ( packer,
        thresholds.((i + offset) mod 5),
        (if Spp_util.Prng.bool rng then Q.of_ints 3 2 else Q.one),
        if Spp_util.Prng.bool rng then 7 else 2 ))
    (Spp_sim.Online.First_fit :: List.init 7 (fun b -> Spp_sim.Online.Buffered (b + 1)))

let diff_sim =
  prop "diff.sim"
    "Sim.run (on integer ticks) returns exactly what Sim.Reference.run (the rational loop) \
     returns, every field, each repack event and each segment in order, under first-fit and \
     buffered:1..7 with repack thresholds none, 1/100, 1/8, 1/4 and 1/2, on the case and on a \
     drawn instance (n in 32..400, K in 1..16 or 63..80, heights in quarters and thirds, \
     Poisson or burst releases, widths that need widening), also with every height and \
     release times p/(p+1) for p = 2^20 - 3 (ticks, large values), p = 2^61 - 1 (the \
     rational loop) and two p at the edge of the guard; Sim.on_kernel agrees with the guard \
     computed on rationals, and the drawn instance takes the ticks except at p = 2^61 - 1"
    [ "release"; "sim" ]
    (fun parsed ->
      let rng = Spp_util.Prng.create (stream_seed_of parsed) in
      let label, drawn = sim_instance rng in
      let settings = sim_settings rng in
      let p_20 = 1_048_573 and p_61 = (1 lsl 61) - 1 in
      (* The largest p with p times the horizon in ticks times [bound] at
         most 2^60: times p/(p+1), the drawn instance's horizon grows by
         p, or less where a denominator cancels. *)
      let edge bound =
        let _, horizon = sim_horizon drawn in
        Spp_num.Bigint.to_int_exn (Q.floor (Q.div two_60 (Q.mul_int horizon bound)))
      in
      let n = I.Release.size drawn and k = drawn.I.Release.k in
      let times p inst = scale_times (Q.of_ints p (p + 1)) inst in
      (* The rational loop is the slow side, and slower on large
         values: the scaled versions run the first four settings or the
         first two. *)
      let first m = List.filteri (fun i _ -> i < m) settings in
      let versions =
        (match parsed with
         | Io.Release inst -> [ ("as generated", inst, None, settings) ]
         | Io.Prec _ -> [])
        @ [ (label, drawn, Some true, settings);
            (label ^ ", times p/(p+1), p = 2^20 - 3", times p_20 drawn, Some true, first 4);
            (label ^ ", times p/(p+1), p = 2^61 - 1", times p_61 drawn, Some false, first 2) ]
        @ List.filter_map
            (fun (what, bound) ->
              let p = edge bound in
              if p < 1 then None
              else
                Some
                  ( Printf.sprintf "%s, times p/(p+1), p = %d (%s)" label p what,
                    times p drawn, None, first 2 ))
            [ ("at the guard", max n k); ("at k times the horizon", k) ]
      in
      all_pass
        (List.concat_map
           (fun (vlabel, inst, expect, settings) ->
             List.concat_map
               (fun (packer, repack_threshold, migration_cost, exact_repack_max) ->
                 let setting =
                   Printf.sprintf "%s, %s, repack %s, cost %s, exact max %d" vlabel
                     (Spp_sim.Online.to_string packer)
                     (match repack_threshold with None -> "off" | Some q -> qs q)
                     (qs migration_cost) exact_repack_max
                 in
                 let on_kernel = Spp_sim.Sim.on_kernel ?repack_threshold inst in
                 let guard = sim_guard ?repack_threshold inst in
                 let got =
                   report_lines
                     (Spp_sim.Sim.run ?repack_threshold ~migration_cost ~exact_repack_max ~packer inst)
                 and expect_lines =
                   report_lines
                     (Spp_sim.Sim.Reference.run ?repack_threshold ~migration_cost ~exact_repack_max
                        ~packer inst)
                 in
                 [ ( on_kernel = guard,
                     fun () ->
                       Printf.sprintf "%s: on_kernel %b, the guard on rationals %b" setting on_kernel
                         guard );
                   ( (match expect with None -> true | Some e -> on_kernel = e),
                     fun () -> Printf.sprintf "%s: on_kernel %b" setting on_kernel );
                   ( got = expect_lines,
                     fun () ->
                       Printf.sprintf "%s: %d lines, reference %d; first difference %s" setting
                         (List.length got) (List.length expect_lines)
                         (first_difference Fun.id got expect_lines) ) ])
               settings)
           versions))

(* ------------------------------------------------------------------ *)
(* Differential: the exact simplex vs the dense reference tableau *)

(* A coefficient: zero one time in three, else +-(1..6)/(1..3). *)
let lp_coeff rng =
  let module P = Spp_util.Prng in
  if P.int rng 3 = 0 then Q.zero
  else Q.of_ints (P.int_in rng 1 6 * if P.bool rng then 1 else -1) (P.int_in rng 1 3)

(* A seeded LP: 1-8 variables and 1-8 rows, half <= and a quarter each
   >= and =, right-hand sides in [-6, 12] (halves too), sometimes a
   duplicated row (phase 1 drops a duplicated equality) and, on most
   draws, box rows x_j <= b. Of the 3000 LPs that
   `spp fuzz --algos lp --cases 3000 --seed 42` draws, 35% are optimal,
   57% infeasible and 7% unbounded, and 58 appends meet a dropped row. *)
let random_lp rng =
  let module M = Spp_lp.Model in
  let module P = Spp_util.Prng in
  let m = M.create () in
  let vars = List.init (P.int_in rng 1 8) (fun j -> M.add_var m ~name:(Printf.sprintf "x%d" j)) in
  M.set_objective m (List.map (fun v -> (v, lp_coeff rng)) vars);
  let rows =
    List.init (P.int_in rng 1 8) (fun _ ->
        let op = [| M.Le; M.Le; M.Ge; M.Eq |].(P.int rng 4) in
        let terms = List.map (fun v -> (v, lp_coeff rng)) vars in
        (terms, op, Q.of_ints (P.int_in rng (-6) 12) (P.int_in rng 1 2)))
  in
  let rows =
    if P.int rng 3 = 0 then rows @ [ List.nth rows (P.int rng (List.length rows)) ] else rows
  in
  List.iteri
    (fun i (terms, op, rhs) -> M.add_constraint m ~name:(Printf.sprintf "c%d" i) terms op rhs)
    rows;
  if P.int rng 4 > 0 then
    List.iter
      (fun v -> M.add_constraint m ~name:"box" [ (v, Q.one) ] M.Le (Q.of_int (P.int_in rng 1 20)))
      vars;
  m

(* 1-6 columns to append: an objective coefficient and entries over a
   random subset of the model's constraints. *)
let random_appends rng model =
  let module P = Spp_util.Prng in
  List.init (P.int_in rng 1 6) (fun _ ->
      ( lp_coeff rng,
        List.filter_map
          (fun r -> if P.bool rng then Some (r, lp_coeff rng) else None)
          (List.init (Spp_lp.Model.num_constraints model) Fun.id) ))

(* The pivots a call reports to the profile, next to its result. *)
let with_pivots f =
  Spp_obs.Profile.reset ();
  let out = f () in
  (out, (Spp_obs.Profile.read ()).Spp_obs.Profile.pivots)

let optimum objective solution duals =
  let vec a = String.concat " " (Array.to_list (Array.map qs a)) in
  Printf.sprintf "objective %s, solution [%s], duals [%s]" (qs objective) (vec solution) (vec duals)

let solve_transcript solve model =
  let module S = Spp_lp.Simplex in
  match with_pivots (fun () -> solve model) with
  | S.Optimal { objective; solution; duals }, p ->
    Printf.sprintf "optimal, %d pivots, %s" p (optimum objective solution duals)
  | S.Infeasible, p -> Printf.sprintf "infeasible, %d pivots" p
  | S.Unbounded, p -> Printf.sprintf "unbounded, %d pivots" p

(* Pivots allowed per create or reoptimize. These LPs took at most 23
   over 20 000 cases of seed 7, and the two sides would hit the bound at
   the same step, so it cannot fail a sound case; a broken pivot that
   never converges fails in about a second instead of growing its
   rationals through a million pivots. *)
let lp_max_iters = 100

(* One line per step: create, then each append with its reoptimize,
   until the appends run out or a step ends the run. *)
let master_transcript (module R : Spp_lp.Simplex.RESTRICTED) model appends =
  let state rm = optimum (R.objective rm) (R.solution rm) (R.duals rm) in
  let rec append rm i = function
    | [] -> []
    | (obj, entries) :: rest ->
      let step = Printf.sprintf "append %d: " i in
      (* The pivots count whatever [add_column] reports too. *)
      let add () =
        match R.add_column rm ~obj ~entries with
        | `Needs_rebuild -> `Needs_rebuild
        | `Added -> (R.reoptimize rm :> [ `Needs_rebuild | `Optimal | `Unbounded ])
      in
      (match with_pivots add with
       | exception Failure msg -> [ step ^ msg ]
       | `Needs_rebuild, _ -> [ step ^ "needs rebuild" ]
       | `Unbounded, p -> [ Printf.sprintf "%sunbounded, %d pivots" step p ]
       | `Optimal, p ->
         Printf.sprintf "%soptimal, %d pivots, %s" step p (state rm) :: append rm (i + 1) rest)
  in
  match with_pivots (fun () -> R.create ~max_iters:lp_max_iters model) with
  | exception Failure msg -> [ "create: " ^ msg ]
  | `Infeasible, p -> [ Printf.sprintf "create: infeasible, %d pivots" p ]
  | `Unbounded, p -> [ Printf.sprintf "create: unbounded, %d pivots" p ]
  | `Optimal rm, p ->
    Printf.sprintf "create: optimal, %d pivots, %s" p (state rm) :: append rm 1 appends

(* [model] and [appends] with every constraint row multiplied by [row]
   and the objective by [obj]. *)
let scale_lp ~row ~obj model appends =
  let module M = Spp_lp.Model in
  let m = M.create () in
  for v = 0 to M.num_vars model - 1 do
    ignore (M.add_var m ~name:(M.var_name model v))
  done;
  let times k = List.map (fun (v, c) -> (v, Q.mul k c)) in
  M.set_objective m (times obj (M.objective model));
  List.iter
    (fun (name, terms, op, rhs) -> M.add_constraint m ~name (times row terms) op (Q.mul row rhs))
    (M.constraints model);
  (m, List.map (fun (o, entries) -> (Q.mul obj o, times row entries)) appends)

let diff_simplex =
  prop "diff.simplex"
    "Simplex.Exact (on one-word rationals, updates on the nonzeros, appends into spare row \
     capacity, boxed rationals once a value leaves the word) returns exactly what \
     Simplex.Reference (the dense tableau) returns on a seeded LP with <=, >= and = rows, \
     zero coefficients, negative right-hand sides and duplicated rows: verdict, objective, \
     solution, duals and profile pivots; then both Restricted masters take the same 1-6 \
     appended columns, each followed by reoptimize, and agree on every verdict, pivot count, \
     objective, solution and dual. The same again with the rows times 2^31, which leaves the \
     word range at load (one fallback each for solve and master), and with the objective \
     times 2^27, which on about a third of the cases leaves it later: in the phase-2 cost \
     row, at a pivot or at an append"
    [ "prec"; "release"; "lp" ]
    (fun parsed ->
      let module S = Spp_lp.Simplex in
      let rng = Spp_util.Prng.create (stream_seed_of parsed) in
      let model = random_lp rng in
      let appends = random_appends rng model in
      (* [f ()], and whether it made the [expected] number of fallbacks
         (any number for [None]). *)
      let falls_back expected f =
        let before = S.Exact.fallbacks () in
        let out = f () in
        (out, Option.fold ~none:true ~some:(( = ) (S.Exact.fallbacks () - before)) expected)
      in
      let check (label, model, appends, fallbacks) =
        let lp () = Format.asprintf "%s:\n%a" label Spp_lp.Model.pp model in
        (* The masters go first: their create runs the same two phases as
           solve, under the pivot bound. *)
        let fast_m, m_ok =
          falls_back fallbacks (fun () -> master_transcript (module S.Exact.Restricted) model appends)
        and slow_m = master_transcript (module S.Reference.Restricted) model appends in
        if fast_m <> slow_m then
          Fail
            (Printf.sprintf "restricted master %s on %s" (first_difference Fun.id fast_m slow_m)
               (lp ()))
        else begin
          let fast, s_ok = falls_back fallbacks (fun () -> solve_transcript S.Exact.solve model)
          and slow = solve_transcript S.Reference.solve model in
          if fast <> slow then
            Fail (Printf.sprintf "solve: exact %s; reference %s on %s" fast slow (lp ()))
          else if not (m_ok && s_ok) then
            Fail
              (Printf.sprintf "fallbacks not %d (master ok %b, solve ok %b) on %s"
                 (Option.value fallbacks ~default:0) m_ok s_ok (lp ()))
          else Pass
        end
      in
      (* Rows times 2^31 put every nonzero constraint entry past the word
         range; only an all-zero constraint set loads on words. *)
      let loads_on_words =
        List.for_all
          (fun (_, terms, _, rhs) -> Q.is_zero rhs && List.for_all (fun (_, c) -> Q.is_zero c) terms)
          (Spp_lp.Model.constraints model)
      in
      let at_load, at_load_appends = scale_lp ~row:(Q.of_int (1 lsl 31)) ~obj:Q.one model appends
      and at_pivot, at_pivot_appends = scale_lp ~row:Q.one ~obj:(Q.of_int (1 lsl 27)) model appends in
      let rec first = function
        | [] -> Pass
        | v :: rest -> (match check v with Pass -> first rest | r -> r)
      in
      first
        [ ("as drawn", model, appends, None);
          ("rows times 2^31", at_load, at_load_appends, Some (if loads_on_words then 0 else 1));
          ("objective times 2^27", at_pivot, at_pivot_appends, None) ])

(* ------------------------------------------------------------------ *)
(* Differential: one-word rationals vs boxed rationals *)

let word_limit = 1 lsl 30

(* Whether [r] fits a word: |num| < 2^30 and den < 2^30. *)
let fits_word r =
  let module B = Spp_num.Bigint in
  let part b = B.is_small b && abs (B.small_value b) < word_limit in
  part (Q.num r) && part (Q.den r)

(* Operands for diff.word, all in the word range: 0, +-1 and
   +-(2^30 - 1), the edges; fractions whose denominators sit just below
   2^30, with neighbours that floats cannot tell apart; pairs whose
   products approach 2^60, with and without cancelling factors; and small
   values, whose sums meet common denominators. *)
let word_operands rng =
  let module P = Spp_util.Prng in
  let top = word_limit - 1 in
  let near () = word_limit - P.int_in rng 1 64 in
  let sign () = if P.bool rng then 1 else -1 in
  let small () = Q.of_ints (sign () * P.int_in rng 0 12) (P.int_in rng 1 12) in
  let b = near () and d = near () in
  let k = P.int_in rng 2 1000 in
  [ Q.zero; Q.one; Q.minus_one; Q.of_int top; Q.of_int (-top); Q.of_ints 1 top;
    Q.of_ints (top - 1) top; Q.of_ints top (top - 1);
    Q.of_ints (sign () * P.int_in rng 1 top) (near ());
    Q.of_ints (b - 1) b; Q.of_ints (d - 1) d; Q.of_ints (b - 2) (b - 1);
    Q.of_ints (sign () * near ()) (P.int_in rng 1 7); Q.of_ints (P.int_in rng 1 7) (near ());
    Q.of_ints (sign () * (top / k * k)) (k + 1); Q.of_ints (k + 1) (top / k);
    small (); small (); small (); small (); small (); small () ]

(* Values of_rat must refuse: one part at or past 2^30. *)
let word_outside =
  [ Q.of_int word_limit; Q.of_int (-word_limit); Q.of_ints 1 word_limit;
    Q.of_ints (word_limit + 1) 3; Q.of_ints 5 ((2 * word_limit) + 1); Q.of_int max_int;
    Q.mul (Q.of_int max_int) (Q.of_int 4) ]

let diff_word =
  prop "diff.word"
    "Field.Word (one normalised rational in an immediate int, |num| and den below 2^30) \
     returns exactly Field.Rat's normalised value on add, sub, mul, div, neg, compare, \
     is_zero, of_rat and to_rat over edge, near-2^30, near-2^60-product and small operands, \
     or raises Overflow exactly when Rat's result leaves the range"
    [ "prec"; "release"; "lp" ]
    (fun parsed ->
      let module W = Spp_lp.Field.Word in
      let rng = Spp_util.Prng.create (stream_seed_of parsed) in
      let operands = List.map (fun r -> (r, W.of_rat r)) (word_operands rng) in
      (* The word result, as Rat prints it, or why there is none. *)
      let outcome f =
        match f () with
        | w ->
          (match W.to_rat w with
           | r when W.to_string w = qs r -> qs r
           | _ -> Printf.sprintf "%s, not normalised" (W.to_string w)
           | exception Division_by_zero -> Printf.sprintf "%s, zero denominator" (W.to_string w))
        | exception W.Overflow -> "overflow"
        | exception Division_by_zero -> "division by zero"
      in
      let expected f =
        match f () with
        | r -> if fits_word r then qs r else "overflow"
        | exception Division_by_zero -> "division by zero"
      in
      let binary name rop wop ((x, wx), (y, wy)) =
        let want = expected (fun () -> rop x y) and got = outcome (fun () -> wop wx wy) in
        ( want = got,
          fun () -> Printf.sprintf "%s %s %s: word %s, rat %s" (qs x) name (qs y) got want )
      in
      let sign c = compare c 0 in
      let pairs = List.concat_map (fun a -> List.map (fun b -> (a, b)) operands) operands in
      let checks =
        List.concat_map
          (fun (((x, wx), (y, wy)) as pair) ->
            [ binary "+" Q.add W.add pair; binary "-" Q.sub W.sub pair;
              binary "*" Q.mul W.mul pair; binary "/" Q.div W.div pair;
              ( sign (W.compare wx wy) = sign (Q.compare x y),
                fun () ->
                  Printf.sprintf "compare %s %s: word %d, rat %d" (qs x) (qs y) (W.compare wx wy)
                    (Q.compare x y) ) ])
          pairs
        @ List.concat_map
            (fun (x, wx) ->
              [ ( outcome (fun () -> W.neg wx) = expected (fun () -> Q.neg x),
                  fun () -> Printf.sprintf "neg %s: word %s" (qs x) (outcome (fun () -> W.neg wx)) );
                ( W.is_zero wx = Q.is_zero x,
                  fun () -> Printf.sprintf "is_zero %s: word %b" (qs x) (W.is_zero wx) );
                ( Q.equal (W.to_rat wx) x && outcome (fun () -> wx) = qs x,
                  fun () -> Printf.sprintf "of_rat then to_rat %s: %s" (qs x) (qs (W.to_rat wx)) ) ])
            operands
        @ List.map
            (fun x ->
              ( outcome (fun () -> W.of_rat x) = "overflow",
                fun () -> Printf.sprintf "of_rat %s: %s" (qs x) (outcome (fun () -> W.of_rat x)) ))
            word_outside
      in
      all_pass checks)

(* ------------------------------------------------------------------ *)
(* Differential: DC and algorithm F on index arrays vs their references *)

(* [inst] with its ids renamed to negative, non-contiguous values whose
   order is unrelated to the input order (the i-th rectangle gets
   -(1 + 3·(7919·i mod 65521)), injective below 65521 rectangles). *)
let scatter_ids (inst : I.Prec.t) =
  let ids = Hashtbl.create 64 in
  List.iteri
    (fun i (r : Rect.t) -> Hashtbl.replace ids r.Rect.id (-(1 + (3 * (7919 * i mod 65521)))))
    inst.I.Prec.rects;
  let id = Hashtbl.find ids in
  let rects =
    List.map (fun (r : Rect.t) -> Rect.make ~id:(id r.Rect.id) ~w:r.Rect.w ~h:r.Rect.h) inst.I.Prec.rects
  in
  I.Prec.make rects
    (Dag.of_edges
       ~nodes:(List.map (fun (r : Rect.t) -> r.Rect.id) rects)
       ~edges:(List.map (fun (u, v) -> (id u, id v)) (Dag.edges inst.I.Prec.dag)))

(* The case's own precedence instance, if any, and one larger instance
   from its stream seed: n in 64..512, a layered or series-parallel DAG,
   uniform heights when [uniform], ids scattered. *)
let index_cases ~uniform parsed =
  let rng = Spp_util.Prng.create (stream_seed_of parsed) in
  let n = Spp_util.Prng.int_in rng 64 512 in
  let shape = if Spp_util.Prng.bool rng then `Layered else `Series_parallel in
  let module G = Spp_workloads.Generators in
  let drawn =
    if uniform then G.random_uniform_prec rng ~n ~k:8 ~shape
    else G.random_prec rng ~n ~k:8 ~h_den:4 ~shape
  in
  let label =
    Printf.sprintf "drawn n = %d %s" n
      (match shape with `Layered -> "layered" | `Series_parallel -> "series-parallel")
  in
  (match parsed with Io.Prec inst -> [ ("as generated", inst) ] | Io.Release _ -> [])
  @ [ (label, scatter_ids drawn) ]

let item_text (it : Placement.item) =
  Printf.sprintf "%d %s %s at (%s, %s)" it.Placement.rect.Rect.id (qs it.Placement.rect.Rect.w)
    (qs it.Placement.rect.Rect.h) (qs it.Placement.pos.Placement.x) (qs it.Placement.pos.Placement.y)

(* The items, in order, and the stats of a packing and its reference's agree. *)
let same_packing pp_stats label (p, s) (p', s') =
  let items = List.map item_text (Placement.items p)
  and items' = List.map item_text (Placement.items p') in
  [ ( items = items',
      fun () ->
        Printf.sprintf "%s: %d items, reference %d; first difference %s" label
          (List.length items) (List.length items') (first_difference Fun.id items items') );
    (s = s', fun () -> Printf.sprintf "%s: stats %s, reference %s" label (pp_stats s) (pp_stats s'))
  ]

(* NFDH sorts its band, so it cannot see the order DC hands the band
   over in; bottom-left in the given order does. *)
let dc_subroutines =
  [ ("nfdh", Spp_pack.Level.nfdh); ("bottom-left in band order", Spp_pack.Bottom_left.pack ~order:Fun.id) ]

let diff_dc =
  prop "diff.dc"
    "Dc.pack (one array view, recursion over index subsets, F on the height grid) returns \
     exactly what Dc.Reference.pack (induced sub-instances, shift and union) returns: every \
     item in order and the stats, with NFDH and with bottom-left in band order as the \
     subroutine, on the case and on a layered or series-parallel instance with n in 64..512 \
     and negative, non-contiguous ids drawn from its stream seed; also with every height \
     times p/(p+1), where p = 2^20 - 3 must stay on the height grid and p = 2^61 - 1 must \
     fall back to rationals"
    [ "prec"; "dc"; "index" ]
    (fun parsed ->
      let pp (s : Spp_core.Dc.stats) =
        Printf.sprintf "%d levels, %d mid calls" s.Spp_core.Dc.levels s.Spp_core.Dc.mid_calls
      in
      (* The rational side is slow on values past 2^60: the drawn
         instance's copy past the guard keeps its first 32 rectangles. *)
      let versions =
        List.concat_map
          (fun (label, inst) ->
            (label, inst, None)
            :: List.map
                 (fun (version, p, expect) ->
                   let inst =
                     if expect then inst
                     else
                       let keep = List.filteri (fun i _ -> i < 32) inst.I.Prec.rects in
                       I.Prec.induced inst (fun id -> List.exists (fun (r : Rect.t) -> r.Rect.id = id) keep)
                   in
                   match scale_y (times p) (Io.Prec inst) with
                   | Io.Prec scaled -> (label ^ ", " ^ version, scaled, Some expect)
                   | Io.Release _ -> assert false)
                 scaled)
          (index_cases ~uniform:false parsed)
      in
      all_pass
        (List.concat_map
           (fun (label, inst, expect) ->
             (match expect with
              | None -> []
              | Some expect ->
                [ path label "DC" ~expect ~empty:(inst.I.Prec.rects = []) (Spp_core.Dc.on_grid inst) ])
             @ List.concat_map
                 (fun (name, subroutine) ->
                   same_packing pp (label ^ ", " ^ name)
                     (Spp_core.Dc.pack ~subroutine inst)
                     (Spp_core.Dc.Reference.pack ~subroutine inst))
                 dc_subroutines)
           versions))

let diff_f =
  prop "diff.f"
    "Uniform.next_fit_shelf (counts of unclosed predecessors) returns exactly what \
     Uniform.Reference.next_fit_shelf (a rescan on every closed shelf) returns: every item in \
     order and the stats, on a uniform-height case and on a uniform layered or series-parallel \
     instance with n in 64..512 and negative, non-contiguous ids drawn from its stream seed"
    [ "prec"; "f"; "index" ]
    (fun parsed ->
      let pp (s : Spp_core.Uniform.shelf_stats) =
        Printf.sprintf "%d shelves, %d skips" s.Spp_core.Uniform.shelves s.Spp_core.Uniform.skips
      in
      all_pass
        (List.concat_map
           (fun (label, inst) ->
             match Spp_core.Uniform.uniform_height inst with
             | None -> []
             | Some _ ->
               same_packing pp label (Spp_core.Uniform.next_fit_shelf inst)
                 (Spp_core.Uniform.Reference.next_fit_shelf inst))
           (index_cases ~uniform:true parsed)))

(* ------------------------------------------------------------------ *)
(* Engine / store round trip *)

let tmp_counter = ref 0

let with_temp_dir f =
  let rec fresh () =
    incr tmp_counter;
    let d =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "spp-fuzz-%d-%d" (Unix.getpid ()) !tmp_counter)
    in
    match Unix.mkdir d 0o700 with
    | () -> d
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> fresh ()
  in
  let dir = fresh () in
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> try rm dir with Sys_error _ -> ()) (fun () -> f dir)

let diff_engine =
  prop "diff.engine"
    "the portfolio engine returns the best member height, validated, and identically through \
     a disk-store round trip"
    [ "prec"; "dc"; "ls"; "engine" ]
    (on_prec (fun inst ->
         if I.Prec.size inst > engine_gate then Skip
         else begin
           let parsed = Io.Prec inst in
           let dc = Placement.height (fst (Spp_core.Dc.pack inst)) in
           let ls = Placement.height (Spp_core.List_schedule.prec inst) in
           let expected = Q.min dc ls in
           with_temp_dir (fun dir ->
               let e1 = Spp_engine.Engine.create ~store_dir:dir () in
               let r1 = Spp_engine.Engine.solve ~algos:[ "dc"; "ls" ] ~workers:1 e1 parsed in
               let e2 = Spp_engine.Engine.create ~store_dir:dir () in
               let r2 = Spp_engine.Engine.solve ~algos:[ "dc"; "ls" ] ~workers:1 e2 parsed in
               let valid label (r : Spp_engine.Engine.result) =
                 match Validate.check_prec inst r.Spp_engine.Engine.placement with
                 | [] -> (true, fun () -> "")
                 | vs -> (false, fun () -> label ^ ": " ^ pp_violations vs)
               in
               all_pass
                 [ (Q.equal r1.Spp_engine.Engine.height expected,
                    fun () -> Printf.sprintf "engine height %s /= best member height %s"
                        (qs r1.Spp_engine.Engine.height) (qs expected));
                   valid "engine result" r1;
                   (r2.Spp_engine.Engine.source = Spp_engine.Engine.Disk_cache,
                    fun () -> "second engine did not hit the disk store");
                   (Q.equal r2.Spp_engine.Engine.height r1.Spp_engine.Engine.height,
                    fun () -> Printf.sprintf "store round trip changed height %s -> %s"
                        (qs r1.Spp_engine.Engine.height) (qs r2.Spp_engine.Engine.height));
                   valid "store round trip" r2 ])
         end))

let sound_engine_degraded =
  prop "sound.engine.degraded"
    "a zero-budget solve returns an anytime answer that still validates, with \
     height = lower_bound + gap and gap >= 0"
    [ "prec"; "release"; "engine" ]
    (fun parsed ->
      let size =
        match parsed with
        | Io.Prec inst -> I.Prec.size inst
        | Io.Release inst -> I.Release.size inst
      in
      if size > engine_gate then Skip
      else begin
        let e = Spp_engine.Engine.create () in
        let r = Spp_engine.Engine.solve ~budget_ms:0.0 ~workers:1 e parsed in
        let valid =
          let vs =
            match parsed with
            | Io.Prec inst -> Validate.check_prec inst r.Spp_engine.Engine.placement
            | Io.Release inst -> Validate.check_release inst r.Spp_engine.Engine.placement
          in
          match vs with
          | [] -> (true, fun () -> "")
          | vs -> (false, fun () -> "degraded answer: " ^ pp_violations vs)
        in
        all_pass
          [ valid;
            (Q.compare r.Spp_engine.Engine.gap Q.zero >= 0,
             fun () -> Printf.sprintf "negative gap %s" (qs r.Spp_engine.Engine.gap));
            (Q.equal r.Spp_engine.Engine.height
               (Q.add r.Spp_engine.Engine.lower_bound r.Spp_engine.Engine.gap),
             fun () ->
               Printf.sprintf "height %s /= lower bound %s + gap %s"
                 (qs r.Spp_engine.Engine.height)
                 (qs r.Spp_engine.Engine.lower_bound)
                 (qs r.Spp_engine.Engine.gap)) ]
      end)

(* ------------------------------------------------------------------ *)
(* Differential: the byte path against the parse path *)

(* The printed instance and two re-spellings the parser reads as the same
   instance: one with a comment line added, one with blank lines added
   and the rect lines reversed. *)
let spellings parsed =
  let printed =
    match parsed with
    | Io.Prec inst -> Io.prec_to_string inst
    | Io.Release inst -> Io.release_to_string inst
  in
  let lines = List.filter (( <> ) "") (String.split_on_char '\n' printed) in
  let rects, rest = List.partition (String.starts_with ~prefix:"rect ") lines in
  [| ("printed", printed);
     ("commented", "# the same instance, sent again\n" ^ printed);
     ("respaced", "\n" ^ String.concat "\n\n" (List.rev rects @ rest) ^ "\n\n") |]

let diff_hitpath =
  prop "diff.hitpath"
    "an engine answering byte path first (Engine.find_text, else parse and solve ~text) and \
     one answering with Engine.solve alone agree on winner, height, lower bound, gap, source \
     and placement text over a stream of the printed instance, two re-spellings of it and \
     repeats, opened by a zero-budget bb/order solve whose degraded answer the byte path \
     must not serve; each engine counts one LRU hit or miss per request"
    [ "prec"; "release"; "engine"; "hitpath" ]
    (fun parsed ->
      let size =
        match parsed with
        | Io.Prec inst -> I.Prec.size inst
        | Io.Release inst -> I.Release.size inst
      in
      if size > engine_gate then Skip
      else begin
        let module E = Spp_engine.Engine in
        let texts = spellings parsed in
        let rng = Spp_util.Prng.create (stream_seed_of parsed) in
        let stream = Array.init (Array.length texts * 3) (fun i -> i mod Array.length texts) in
        Spp_util.Prng.shuffle rng stream;
        let a = E.create () and b = E.create () in
        let algos = [ "dc"; "ls" ] in
        (* Engine A: the byte path first, as [spp serve] answers. Texts it
           has answered with a cacheable (not degraded) result must come
           back by bytes: the LRU never fills up here. *)
        let cached = Hashtbl.create 4 in
        let answer_a ?budget_ms ?(algos = algos) label text =
          let repeat = Hashtbl.mem cached text in
          let by_bytes, ((r : E.result), _ as answer) =
            match E.find_text a text with
            | Some hit -> (true, hit)
            | None ->
              let r = E.solve ?budget_ms ~algos ~workers:1 ~text a (Io.parse_string text) in
              (false, (r, Io.placement_to_string r.E.placement))
          in
          if not r.E.degraded then Hashtbl.replace cached text ();
          ( answer,
            ( by_bytes || not repeat,
              fun () -> label ^ ": a byte-identical repeat missed the byte path" ) )
        in
        let answer_b ?budget_ms ?(algos = algos) text =
          E.solve ?budget_ms ~algos ~workers:1 b (Io.parse_string text)
        in
        let source = function
          | E.Computed -> "computed"
          | E.Memory_cache -> "cache.memory"
          | E.Disk_cache -> "cache.disk"
        in
        let agree label ((ra : E.result), text_a) (rb : E.result) =
          let field name pp x y =
            (x = y, fun () -> Printf.sprintf "%s: %s %s (byte path) vs %s" label name (pp x) (pp y))
          in
          [ field "winner" Fun.id ra.E.winner rb.E.winner;
            field "height" qs ra.E.height rb.E.height;
            field "lower_bound" qs ra.E.lower_bound rb.E.lower_bound;
            field "gap" qs ra.E.gap rb.E.gap;
            field "source" source ra.E.source rb.E.source;
            field "degraded" string_of_bool ra.E.degraded rb.E.degraded;
            field "placement" Fun.id text_a (Io.placement_to_string rb.E.placement) ]
        in
        let printed = snd texts.(0) in
        let exact = [ "bb"; "order" ] in
        let opener = "zero-budget opener" in
        let opened_a, _ = answer_a ~budget_ms:0.0 ~algos:exact opener printed in
        let opened_b = answer_b ~budget_ms:0.0 ~algos:exact printed in
        let degraded_kept_out =
          ( (not (fst opened_a).E.degraded) || E.find_text a printed = None,
            fun () -> "the byte path served a degraded answer" )
        in
        let streamed =
          List.concat_map
            (fun k ->
              let name, text = texts.(k) in
              let label = "request " ^ name in
              let got, by_bytes = answer_a label text in
              by_bytes :: agree label got (answer_b text))
            (Array.to_list stream)
        in
        let answered = 1 + Array.length stream in
        let counted label e =
          let s = E.cache_stats e in
          ( s.Spp_engine.Lru.hits + s.Spp_engine.Lru.misses = answered,
            fun () ->
              Printf.sprintf "%s: %d LRU hits + %d misses for %d requests" label
                s.Spp_engine.Lru.hits s.Spp_engine.Lru.misses answered )
        in
        all_pass
          ((degraded_kept_out :: agree opener opened_a opened_b)
          @ streamed
          @ [ counted "byte-path engine" a; counted "parse-path engine" b ])
      end)

(* ------------------------------------------------------------------ *)
(* Planted bug (self test) *)

let buggy_pack (inst : I.Prec.t) =
  let p = Spp_core.List_schedule.prec inst in
  let h_min =
    List.fold_left (fun acc (r : Rect.t) -> Q.min acc r.Rect.h)
      (Rect.max_height inst.I.Prec.rects) inst.I.Prec.rects
  in
  let delta = Q.div h_min Q.two in
  Placement.of_items
    (List.map
       (fun (it : Placement.item) ->
         let y = it.Placement.pos.Placement.y in
         if Q.is_zero y then it
         else { it with Placement.pos = { it.Placement.pos with Placement.y = Q.sub y (Q.min delta y) } })
       (Placement.items p))

let planted_bug =
  prop "sound.planted.offbyone"
    "SELF TEST: a solver that lowers every stacked rectangle by half the minimum height \
     must be caught by Validate and shrunk to a minimal stacked pair"
    [ "prec"; "planted" ]
    (on_prec (fun inst -> prec_valid inst (buggy_pack inst)))

(* ------------------------------------------------------------------ *)
(* Registry *)

let all =
  [
    sound_dc; sound_ls_prec; sound_uniform_f; sound_uniform_pff; sound_uniform_wave;
    sound_ls_release; sound_shelf; sound_shelf_ff;
    guar_dc_thm23; guar_prec_lb; guar_uniform_f_thm26; guar_release_lb; guar_aptas;
    diff_exact_prec; diff_uniform_dp; diff_exact_release; sound_bb_parallel; num_diff;
    diff_engine; sound_engine_degraded;
    meta_relabel; meta_edge_drop; meta_release_slacken;
    sound_sim_ff; sound_sim_buffered; sound_sim_repack; sim_stream;
    diff_validate; diff_sim_check; diff_sim; diff_hitpath; diff_order; diff_bb; diff_simplex;
    diff_word; diff_dc; diff_f;
  ]

let select ?algos ~variant () =
  let by_variant =
    match variant with
    | `Both -> all
    | `Prec -> List.filter (fun p -> List.mem "prec" p.tags) all
    | `Release -> List.filter (fun p -> List.mem "release" p.tags) all
  in
  match algos with
  | None -> by_variant
  | Some names ->
    let known =
      List.sort_uniq compare
        (List.concat_map (fun p -> List.filter (fun t -> t <> "prec" && t <> "release") p.tags) all)
    in
    List.iter
      (fun n ->
        if not (List.mem n known) then
          invalid_arg
            (Printf.sprintf "unknown algo %S in --algos; known: %s" n (String.concat ", " known)))
      names;
    List.filter (fun p -> List.exists (fun n -> List.mem n p.tags) names) by_variant
