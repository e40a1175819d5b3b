(* Unit tests for the benchmark driver: the compare verdicts on synthetic
   runs, the open-loop generator against a server that stalls, span self
   times, and the metric catalogue against BENCHMARK.json. *)

module Json = Spp_server.Json
module Framing = Spp_server.Framing

(* ------------------------------------------------------------------ *)
(* compare *)

let close_to = Alcotest.float 1e-9

let test_quartiles () =
  (* values from Python's statistics.quantiles(data, n=4) *)
  let check name data (a, b, c) =
    let q1, q2, q3 = Compare.quartiles data in
    Alcotest.check close_to (name ^ " q1") a q1;
    Alcotest.check close_to (name ^ " median") b q2;
    Alcotest.check close_to (name ^ " q3") c q3
  in
  check "1..10" (List.init 10 (fun i -> float_of_int (i + 1))) (2.75, 5.5, 8.25);
  check "1..4" [ 4.0; 1.0; 3.0; 2.0 ] (1.25, 2.5, 3.75);
  check "two" [ 1.0; 2.0 ] (0.75, 1.5, 2.25)

let lower = { Compare.higher_is_better = false; bound = Some 0.1 }

let pairs parent change = List.map2 (fun p c -> (p, c)) parent change
let around x = List.init 10 (fun i -> x +. (0.01 *. x *. float_of_int (i mod 3)))

let verdict spec parent change = (Compare.judge spec (pairs parent change)).Compare.verdict

let test_verdicts () =
  let v = Alcotest.testable (Fmt.of_to_string Compare.verdict_to_string) ( = ) in
  Alcotest.check v "20% faster on every pair" Compare.Improved
    (verdict lower (around 10.0) (around 8.0));
  Alcotest.check v "same numbers" Compare.Unchanged (verdict lower (around 10.0) (around 10.0));
  Alcotest.check v "30% slower" Compare.Regressed (verdict lower (around 10.0) (around 13.0));
  Alcotest.check v "5% slower is inside the bound" Compare.Unchanged
    (verdict lower (around 10.0) (around 10.5));
  (* parent spread 0.5 relative > bound 0.1 *)
  let noisy = [ 5.0; 15.0; 5.0; 15.0; 10.0; 5.0; 15.0; 10.0; 5.0; 15.0 ] in
  Alcotest.check v "noisy parent" Compare.Unresolved (verdict lower noisy (around 9.0));
  Alcotest.check v "noisy parent, change beats every run" Compare.Improved
    (verdict lower noisy (around 4.0));
  (* 8 wins of 10 is below the 9/10 rule *)
  let parent = around 10.0 and change = List.mapi (fun i x -> if i < 2 then x +. 1.0 else x -. 2.0) (around 10.0) in
  Alcotest.check v "8 of 10 wins" Compare.Unchanged (verdict lower parent change);
  let higher = { Compare.higher_is_better = true; bound = Some 0.1 } in
  Alcotest.check v "higher is better" Compare.Improved (verdict higher (around 100.0) (around 130.0));
  let layer = { Compare.higher_is_better = false; bound = None } in
  Alcotest.check v "per-layer regression by the gain rule" Compare.Regressed
    (verdict layer (around 10.0) (around 12.0))

let run_text ~workload ~seed metrics =
  Printf.sprintf "# workload %s seed %d seconds 10 trace 0\n# noise\n%s\n" workload seed
    (Json.to_string
       (Json.Obj
          [ ("correct", Json.Bool true); ("attempted", Json.Int 5); ("failed", Json.Int 0);
            ( "metrics",
              Json.Obj
                (List.map (fun (k, x) -> (k, Json.Obj [ ("value", Json.Float x); ("unit", Json.String "ms") ])) metrics) ) ]))

let test_parse_and_rows () =
  (match Compare.parse_run (run_text ~workload:"hot_repeat" ~seed:7 [ ("latency_p50_ms", 1.5) ]) with
   | Ok r ->
     Alcotest.(check string) "workload" "hot_repeat" r.Compare.workload;
     Alcotest.(check int) "seed" 7 r.Compare.seed;
     Alcotest.check close_to "value" 1.5 (List.assoc "latency_p50_ms" r.Compare.metrics)
   | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "no header is an error" true (Result.is_error (Compare.parse_run "{}\n"));
  let runs x = List.init 10 (fun s ->
      match Compare.parse_run (run_text ~workload:"w" ~seed:s [ ("latency_p50_ms", x +. (0.01 *. float_of_int s)) ]) with
      | Ok r -> r
      | Error e -> failwith e)
  in
  (* pairs are matched by seed, whatever the file order *)
  match Compare.rows [ ("latency_p50_ms", lower) ] (runs 10.0) (List.rev (runs 5.0)) with
  | [ ("w", "latency_p50_ms", _, r) ] ->
    Alcotest.(check int) "pairs" 10 r.Compare.pairs;
    Alcotest.(check int) "wins" 10 r.Compare.wins;
    Alcotest.(check string) "verdict" "improved" (Compare.verdict_to_string r.Compare.verdict)
  | _ -> Alcotest.fail "expected one row"

(* ------------------------------------------------------------------ *)
(* Open-loop generator against a server that stalls once *)

(* Echo server over socketpairs. One request, "stall", holds the shared
   lock for [stall_ms], so both connections stop answering meanwhile. *)
let fake_server ~stall_ms n =
  let lock = Mutex.create () in
  let stalled = ref false in
  List.init n (fun _ ->
      let client, server = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let th =
        Thread.create
          (fun () ->
            let r = Framing.reader server in
            let rec loop () =
              match Framing.read_line r with
              | None -> ()
              | Some line ->
                Mutex.lock lock;
                if line = "stall" && not !stalled then begin
                  stalled := true;
                  Thread.delay (stall_ms /. 1000.0)
                end;
                Mutex.unlock lock;
                Framing.write_line server ("re:" ^ line);
                loop ()
            in
            (try loop () with Unix.Unix_error _ -> ());
            Unix.close server)
          ()
      in
      ({ Load.fd = client; reader = Framing.reader client }, th))

let test_open_loop_counts_stall () =
  let stall_ms = 200.0 in
  let conns = fake_server ~stall_ms 2 in
  let n = 60 in
  let due = Array.init n (fun i -> 10.0 *. float_of_int i) in
  let lines = Array.init n (fun i -> if i = 10 then "stall" else Printf.sprintf "r%d" i) in
  let samples = Load.open_loop (Array.of_list (List.map fst conns)) ~lines ~due in
  List.iter (fun (c, _) -> Load.close c) conns;
  List.iter (fun (_, th) -> Thread.join th) conns;
  Array.iter
    (fun (s : Load.sample) ->
      Alcotest.(check bool) "reply" true (s.Load.reply = Ok ("re:" ^ lines.(s.Load.idx))))
    samples;
  let st = samples.(10) in
  Alcotest.(check bool) "the stall is visible" true (Load.latency_ms st >= stall_ms -. 1.0);
  (* Every request that fell due during the stall is charged at least
     the rest of the stall, counted from its due time. *)
  let during =
    List.filter (fun (s : Load.sample) -> s.Load.idx > 10 && s.Load.due < st.Load.fin -. 5.0) (Array.to_list samples)
  in
  Alcotest.(check bool) "some requests fell due during the stall" true (List.length during >= 10);
  List.iter
    (fun (s : Load.sample) ->
      let waited = st.Load.fin -. s.Load.due in
      if Load.latency_ms s < waited -. 1.0 then
        Alcotest.failf "request %d: latency %.1f ms < %.1f ms it waited" s.Load.idx (Load.latency_ms s) waited)
    during;
  let lag_p99 = Outcome.percentile 99.0 (Array.to_list (Array.map Load.lag_ms samples)) in
  Alcotest.(check bool) "generator lag reported" true (lag_p99 >= 100.0)

(* ------------------------------------------------------------------ *)
(* Spans *)

let test_self_time () =
  let leaf name start dur = { Spans.name; start; dur = Some dur; children = [] } in
  let root =
    { Spans.name = "root"; start = 0.0; dur = Some 10.0;
      children = [ leaf "a" 1.0 3.0; leaf "b" 2.0 4.0; leaf "c" 8.0 5.0 ] }
  in
  (* children cover [1,6] and [8,10] inside the root *)
  Alcotest.check close_to "self" 3.0 (Spans.self_ms root);
  let open_root = { root with Spans.dur = None } in
  Alcotest.check close_to "open root ends at its last child" 13.0 (Spans.length open_root)

(* ------------------------------------------------------------------ *)
(* BENCHMARK.json lists exactly the catalogue *)

let test_benchmark_json () =
  let j =
    match Json.of_string (In_channel.with_open_bin "../../BENCHMARK.json" In_channel.input_all) with
    | Ok j -> j
    | Error e -> Alcotest.fail e
  in
  let names key =
    match Json.member key j with
    | Some (Json.List l) ->
      List.map
        (fun m ->
          let s k = Option.value ~default:"" (Option.bind (Json.member k m) Json.get_string) in
          (s "name", s "unit", s "better"))
        l
    | _ -> Alcotest.fail ("no " ^ key)
  in
  let of_cat l =
    List.map
      (fun (m : Catalogue.metric) ->
        (m.Catalogue.name, m.Catalogue.unit_, if m.Catalogue.higher_is_better then "higher" else "lower"))
      l
  in
  let triple = Alcotest.(list (triple string string string)) in
  Alcotest.check triple "end_to_end" (of_cat Catalogue.end_to_end) (names "end_to_end");
  Alcotest.check triple "per_layer" (of_cat Catalogue.per_layer) (names "per_layer");
  let workloads =
    match Json.member "workloads" j with
    | Some (Json.List l) ->
      List.map (fun w -> Option.value ~default:"" (Option.bind (Json.member "name" w) Json.get_string)) l
    | _ -> []
  in
  Alcotest.(check (list string)) "workloads"
    (List.map (fun w -> w.Catalogue.w_name) Catalogue.workloads)
    workloads

let () =
  Alcotest.run "spp_bench"
    [ ( "compare",
        [ Alcotest.test_case "quartiles match Python" `Quick test_quartiles;
          Alcotest.test_case "verdicts" `Quick test_verdicts;
          Alcotest.test_case "run files and seed pairing" `Quick test_parse_and_rows ] );
      ( "load",
        [ Alcotest.test_case "open loop charges a stall to later requests" `Quick
            test_open_loop_counts_stall ] );
      ("spans", [ Alcotest.test_case "self time" `Quick test_self_time ]);
      ("catalogue", [ Alcotest.test_case "BENCHMARK.json agrees" `Quick test_benchmark_json ]) ]
