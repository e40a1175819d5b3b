(* Tests for Spp_core.Io: the instance file format — parsing, error
   reporting with line numbers, and round trips for both variants. *)

module Q = Spp_num.Rat
module Rect = Spp_geom.Rect
module Dag = Spp_dag.Dag
module I = Spp_core.Instance
module Io = Spp_core.Io

let q = Q.of_ints

let test_parse_prec () =
  let src = "# demo\nrect 0 1/2 3/4\nrect 1 1/4 1\nedge 0 1\n" in
  match Io.parse_string src with
  | Io.Prec inst ->
    Alcotest.(check int) "n" 2 (I.Prec.size inst);
    Alcotest.(check bool) "edge" true (Dag.has_edge inst.dag 0 1);
    Alcotest.(check string) "w0" "1/2" (Q.to_string (I.Prec.rect inst 0).Rect.w)
  | Io.Release _ -> Alcotest.fail "expected precedence instance"

let test_parse_release () =
  let src = "k 4\nrect 0 1/2 1\nrect 1 1/4 1/2\nrelease 0 5/2\n" in
  match Io.parse_string src with
  | Io.Release inst ->
    Alcotest.(check int) "k" 4 inst.k;
    Alcotest.(check string) "release 0" "5/2" (Q.to_string (I.Release.release inst 0));
    Alcotest.(check string) "default release" "0" (Q.to_string (I.Release.release inst 1))
  | Io.Prec _ -> Alcotest.fail "expected release instance"

let test_parse_decimals_and_comments () =
  let src = "rect 0 0.5 0.75  # trailing comment\n\n  rect 1 1 2\n" in
  match Io.parse_string src with
  | Io.Prec inst ->
    Alcotest.(check string) "decimal width" "1/2" (Q.to_string (I.Prec.rect inst 0).Rect.w);
    Alcotest.(check string) "decimal height" "3/4" (Q.to_string (I.Prec.rect inst 0).Rect.h)
  | Io.Release _ -> Alcotest.fail "expected prec"

let contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let expect_failure msg_part src =
  match Io.parse_string src with
  | exception Failure msg ->
    Alcotest.(check bool)
      (Printf.sprintf "%S mentions %S" msg msg_part)
      true (contains_substring msg msg_part)
  | _ -> Alcotest.failf "expected failure mentioning %S" msg_part

let test_parse_errors () =
  expect_failure "line 2" "rect 0 1/2 1\nbogus 1 2\n";
  expect_failure "bad rational" "rect 0 x 1\n";
  expect_failure "bad integer" "rect zero 1/2 1\n";
  expect_failure "mixes edge and release" "rect 0 1 1\nrect 1 1 1\nedge 0 1\nrelease 0 1\n";
  expect_failure "unknown rect" "rect 0 1 1\nrelease 7 1\n";
  expect_failure "duplicate release" "rect 0 1 1\nrelease 0 1\nrelease 0 2\n";
  expect_failure "cycle" "rect 0 1 1\nrect 1 1 1\nedge 0 1\nedge 1 0\n";
  expect_failure "width" "rect 0 2 1\n"

let test_prec_roundtrip () =
  let rng = Spp_util.Prng.create 5 in
  let inst = Spp_workloads.Generators.random_prec rng ~n:15 ~k:8 ~h_den:4 ~shape:`Layered in
  match Io.parse_string (Io.prec_to_string inst) with
  | Io.Prec inst' ->
    Alcotest.(check int) "n" (I.Prec.size inst) (I.Prec.size inst');
    Alcotest.(check int) "edges" (Dag.num_edges inst.dag) (Dag.num_edges inst'.dag);
    List.iter2
      (fun (a : Rect.t) (b : Rect.t) ->
        if not (Rect.equal a b) then Alcotest.fail "rect mismatch")
      inst.rects inst'.rects
  | Io.Release _ -> Alcotest.fail "variant flipped"

let test_release_roundtrip () =
  let rng = Spp_util.Prng.create 9 in
  let inst = Spp_workloads.Generators.random_release rng ~n:12 ~k:4 ~h_den:4 ~r_den:2 ~load:1.0 in
  match Io.parse_string (Io.release_to_string inst) with
  | Io.Release inst' ->
    Alcotest.(check int) "k" inst.k inst'.k;
    List.iter
      (fun (t : I.Release.task) ->
        Alcotest.(check string)
          (Printf.sprintf "release %d" t.rect.Rect.id)
          (Q.to_string t.release)
          (Q.to_string (I.Release.release inst' t.rect.Rect.id)))
      inst.tasks
  | Io.Prec _ -> Alcotest.fail "variant flipped"

let test_placement_output () =
  let p =
    Spp_geom.Placement.of_items
      [ { Spp_geom.Placement.rect = Rect.make ~id:3 ~w:(q 1 2) ~h:Q.one;
          pos = { Spp_geom.Placement.x = q 1 4; y = q 3 2 } } ]
  in
  Alcotest.(check string) "format" "height 5/2\nplace 3 1/4 3/2\n" (Io.placement_to_string p)

let test_parse_placement () =
  let rects = [ Rect.make ~id:0 ~w:(q 1 2) ~h:Q.one; Rect.make ~id:1 ~w:(q 1 2) ~h:Q.one ] in
  let p = Io.parse_placement ~rects "height 1\nplace 0 0 0\nplace 1 1/2 0\n" in
  Alcotest.(check int) "two items" 2 (Spp_geom.Placement.size p);
  Alcotest.(check string) "height recomputed" "1" (Q.to_string (Spp_geom.Placement.height p));
  (* Errors *)
  let expect msg src =
    match Io.parse_placement ~rects src with
    | exception Failure m ->
      Alcotest.(check bool) (m ^ " mentions " ^ msg) true (contains_substring m msg)
    | _ -> Alcotest.failf "expected failure about %s" msg
  in
  expect "unknown rect" "place 9 0 0\n";
  expect "duplicate place" "place 0 0 0\nplace 0 0 1\n";
  expect "bad rational" "place 0 zero 0\n"

let prop_placement_roundtrip =
  QCheck.Test.make ~name:"placements round-trip through the text format" ~count:100
    (QCheck.int_range 0 10_000) (fun seed ->
      let rng = Spp_util.Prng.create seed in
      let rects = Spp_workloads.Generators.random_rects rng ~n:(1 + (seed mod 15)) ~k:8 ~h_den:4 in
      let p = Spp_pack.Bottom_left.pack rects in
      let p' = Io.parse_placement ~rects (Io.placement_to_string p) in
      Spp_geom.Placement.size p = Spp_geom.Placement.size p'
      && Q.equal (Spp_geom.Placement.height p) (Spp_geom.Placement.height p')
      && List.for_all
           (fun (it : Spp_geom.Placement.item) ->
             match Spp_geom.Placement.find p' ~id:it.rect.Rect.id with
             | Some it' ->
               Q.equal it.pos.Spp_geom.Placement.x it'.pos.Spp_geom.Placement.x
               && Q.equal it.pos.Spp_geom.Placement.y it'.pos.Spp_geom.Placement.y
             | None -> false)
           (Spp_geom.Placement.items p))

let prop_prec_roundtrip =
  QCheck.Test.make ~name:"prec instances round-trip through the file format" ~count:100
    (QCheck.int_range 0 100_000) (fun seed ->
      let rng = Spp_util.Prng.create seed in
      let inst =
        Spp_workloads.Generators.random_prec rng ~n:(1 + (seed mod 20)) ~k:8 ~h_den:4
          ~shape:`Series_parallel
      in
      match Io.parse_string (Io.prec_to_string inst) with
      | Io.Prec inst' ->
        I.Prec.size inst = I.Prec.size inst'
        && Dag.edges inst.dag = Dag.edges inst'.dag
        && List.for_all2 Rect.equal inst.rects inst'.rects
      | Io.Release _ -> false)

let prop_release_roundtrip =
  QCheck.Test.make ~name:"release instances round-trip through the file format" ~count:100
    (QCheck.int_range 0 100_000) (fun seed ->
      let rng = Spp_util.Prng.create seed in
      let inst =
        Spp_workloads.Generators.random_release rng ~n:(1 + (seed mod 16))
          ~k:(2 + (seed mod 6)) ~h_den:4 ~r_den:2 ~load:1.2
      in
      match Io.parse_string (Io.release_to_string inst) with
      | Io.Release inst' ->
        inst.k = inst'.k
        && I.Release.size inst = I.Release.size inst'
        && List.for_all2
             (fun (a : I.Release.task) (b : I.Release.task) ->
               Rect.equal a.rect b.rect && Q.equal a.release b.release)
             inst.tasks inst'.tasks
      | Io.Prec _ -> false)

let prop_parser_total =
  (* Robustness fuzz: arbitrary input never crashes the parser with
     anything but the documented Failure. *)
  QCheck.Test.make ~name:"parser is total (parses or fails cleanly)" ~count:500
    QCheck.(string_gen_of_size Gen.(int_range 0 120) Gen.printable)
    (fun s ->
      match Io.parse_string s with
      | Io.Prec _ | Io.Release _ -> true
      | exception Failure _ -> true
      | exception _ -> false)

let prop_parser_total_structured =
  (* Fuzz with format-shaped tokens: random directives with random args. *)
  QCheck.Test.make ~name:"parser total on directive-shaped fuzz" ~count:500
    QCheck.(
      list_of_size Gen.(int_range 0 12)
        (make
           Gen.(
             oneofl
               [ "rect 0 1/2 1"; "rect 0 1 1"; "rect 1 3/4 2"; "edge 0 1"; "edge 1 0";
                 "release 0 2"; "release 1 -1"; "k 4"; "k x"; "rect"; "edge 0"; "# note";
                 "rect 2 0 1"; "rect 2 2 1" ])))
    (fun lines ->
      let s = String.concat "\n" lines in
      match Io.parse_string s with
      | Io.Prec _ | Io.Release _ -> true
      | exception Failure _ -> true
      | exception _ -> false)

(* ------------------------------------------------------------------ *)
(* CLI error classification: parse errors and I/O errors get distinct
   sysexits-style codes and a one-line hint. Tests run from
   _build/default/test, so the built binary sits at ../bin/spp.exe. *)

let spp_exe = Filename.concat ".." (Filename.concat "bin" "spp.exe")

let run_cli args =
  Sys.command (Printf.sprintf "%s %s >/dev/null 2>&1" (Filename.quote spp_exe) args)

let test_cli_parse_error_exit () =
  let bad = Filename.temp_file "spp_garbage" ".spp" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove bad with Sys_error _ -> ())
    (fun () ->
      let oc = open_out bad in
      output_string oc "rect 0 x 1\n";
      close_out oc;
      Alcotest.(check int) "parse error exits 65" 65
        (run_cli (Printf.sprintf "pack %s" (Filename.quote bad)));
      Alcotest.(check int) "solve classifies the same way" 65
        (run_cli (Printf.sprintf "solve --no-cache %s" (Filename.quote bad))))

let test_cli_io_error_exit () =
  let missing = Filename.concat (Filename.get_temp_dir_name ()) "spp_no_such_file.spp" in
  (try Sys.remove missing with Sys_error _ -> ());
  Alcotest.(check int) "missing file exits 66" 66
    (run_cli (Printf.sprintf "pack %s" (Filename.quote missing)));
  Alcotest.(check int) "solve classifies the same way" 66
    (run_cli (Printf.sprintf "solve --no-cache %s" (Filename.quote missing)))

let test_cli_parse_error_hint () =
  (* The stderr line must carry both the parse failure and the hint. *)
  let bad = Filename.temp_file "spp_garbage" ".spp" in
  let err = Filename.temp_file "spp_stderr" ".txt" in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ bad; err ])
    (fun () ->
      let oc = open_out bad in
      output_string oc "bogus directive\n";
      close_out oc;
      let code =
        Sys.command
          (Printf.sprintf "%s pack %s >/dev/null 2>%s" (Filename.quote spp_exe)
             (Filename.quote bad) (Filename.quote err))
      in
      Alcotest.(check int) "exit code" 65 code;
      let ic = open_in err in
      let len = in_channel_length ic in
      let text = really_input_string ic len in
      close_in ic;
      Alcotest.(check bool) "names the offending line" true (contains_substring text "line 1");
      Alcotest.(check bool) "carries a hint" true (contains_substring text "hint:"))

(* The uniform-height algorithms refuse mixed heights with a usage error
   naming the algorithm, and pack an empty file like DC does. *)
let test_cli_uniform_mixed_heights () =
  let err = Filename.temp_file "spp_stderr" ".txt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove err with Sys_error _ -> ())
    (fun () ->
      List.iter
        (fun alg ->
          let code =
            Sys.command
              (Printf.sprintf "%s pack --alg %s %s >/dev/null 2>%s" (Filename.quote spp_exe) alg
                 (Filename.quote "../data/jpeg4.spp") (Filename.quote err))
          in
          Alcotest.(check int) (alg ^ " exits 64") 64 code;
          let text = In_channel.with_open_text err In_channel.input_all in
          Alcotest.(check bool) (alg ^ " names the algorithm") true
            (contains_substring text ("--alg " ^ alg));
          Alcotest.(check int) (alg ^ " one line") 1
            (List.length (String.split_on_char '\n' (String.trim text))))
        [ "f"; "pff"; "wave" ])

let test_cli_uniform_empty_file () =
  let empty = Filename.temp_file "spp_empty" ".spp" in
  let out = Filename.temp_file "spp_stdout" ".txt" in
  Fun.protect
    ~finally:(fun () -> List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ empty; out ])
    (fun () ->
      List.iter
        (fun alg ->
          let code =
            Sys.command
              (Printf.sprintf "%s pack --alg %s %s >%s 2>/dev/null" (Filename.quote spp_exe) alg
                 (Filename.quote empty) (Filename.quote out))
          in
          Alcotest.(check int) (alg ^ " exits 0") 0 code;
          Alcotest.(check string) (alg ^ " packs nothing") "height 0"
            (String.trim (In_channel.with_open_text out In_channel.input_all)))
        [ "dc"; "f"; "pff"; "wave" ])

(* [--stats-json] is the one reader of the engine's event log, which the
   CLI keeps only when the flag is given: the file must still hold one
   [solver] event per raced member, one [solve] summary, then the
   counters. *)
let test_cli_stats_json () =
  let stats = Filename.temp_file "spp_stats" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove stats with Sys_error _ -> ())
    (fun () ->
      Alcotest.(check int) "solve exits 0" 0
        (run_cli
           (Printf.sprintf "solve --no-cache --algos dc,ls --stats-json %s ../data/jpeg4.spp"
              (Filename.quote stats)));
      let lines = In_channel.with_open_text stats In_channel.input_lines in
      let count prefix = List.length (List.filter (String.starts_with ~prefix) lines) in
      Alcotest.(check int) "one solver event per raced member" 2
        (count "{\"event\":\"solver\"");
      Alcotest.(check int) "one solve summary" 1 (count "{\"event\":\"solve\"");
      Alcotest.(check bool) "the miss is counted" true
        (List.mem "{\"counter\":\"cache.miss\",\"value\":1}" lines);
      Alcotest.(check int) "nothing else" (List.length lines)
        (count "{\"event\":\"solver\"" + count "{\"event\":\"solve\"" + count "{\"counter\""))

(* Library-level contract behind the CLI classification. *)
let test_error_exceptions () =
  (match Io.parse_string "rect 0 x 1\n" with
   | exception Failure _ -> ()
   | _ -> Alcotest.fail "expected Failure for a parse error");
  match Io.read_file "/nonexistent/spp/input.spp" with
  | exception Sys_error _ -> ()
  | exception Failure _ -> Alcotest.fail "I/O error must not be a Failure"
  | _ -> Alcotest.fail "expected Sys_error for a missing file"

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "spp_io"
    [
      ( "parse",
        [
          Alcotest.test_case "prec" `Quick test_parse_prec;
          Alcotest.test_case "release" `Quick test_parse_release;
          Alcotest.test_case "decimals and comments" `Quick test_parse_decimals_and_comments;
          Alcotest.test_case "errors" `Quick test_parse_errors;
        ] );
      ("fuzz", qt [ prop_parser_total; prop_parser_total_structured ]);
      ( "cli-errors",
        [
          Alcotest.test_case "parse error exit code" `Quick test_cli_parse_error_exit;
          Alcotest.test_case "io error exit code" `Quick test_cli_io_error_exit;
          Alcotest.test_case "parse error hint" `Quick test_cli_parse_error_hint;
          Alcotest.test_case "library exceptions" `Quick test_error_exceptions;
          Alcotest.test_case "uniform algorithms on mixed heights" `Quick
            test_cli_uniform_mixed_heights;
          Alcotest.test_case "uniform algorithms on an empty file" `Quick
            test_cli_uniform_empty_file;
        ] );
      ("cli", [ Alcotest.test_case "stats json" `Quick test_cli_stats_json ]);
      ( "roundtrip",
        Alcotest.test_case "prec" `Quick test_prec_roundtrip
        :: Alcotest.test_case "release" `Quick test_release_roundtrip
        :: Alcotest.test_case "placement output" `Quick test_placement_output
        :: Alcotest.test_case "placement parsing" `Quick test_parse_placement
        :: qt [ prop_prec_roundtrip; prop_release_roundtrip; prop_placement_roundtrip ] );
    ]
