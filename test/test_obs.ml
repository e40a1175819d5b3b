(* Tests for Spp_obs: the sharded metrics registry (bucket boundary
   semantics, cross-domain merge under hammering), Prometheus text
   exposition (name sanitisation, label escaping), span-tree traces
   (including the trace_id round-trip over the live wire protocol), and
   the structured logger with the server's slow-request log. *)

module Metrics = Spp_obs.Metrics
module Expo = Spp_obs.Expo
module Promtext = Spp_obs.Promtext
module Profile = Spp_obs.Profile
module Runtime = Spp_obs.Runtime
module Trace = Spp_obs.Trace
module Log = Spp_obs.Log
module Field = Spp_obs.Field
module Prng = Spp_util.Prng
module Io = Spp_core.Io
module Generators = Spp_workloads.Generators
module Engine = Spp_engine.Engine
module Json = Spp_server.Json
module Protocol = Spp_server.Protocol
module Framing = Spp_server.Framing
module Server = Spp_server.Server
module Client = Spp_server.Client

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Metrics: counters and gauges *)

let test_counters_and_gauges () =
  let t = Metrics.create () in
  let c = Metrics.counter t "requests" in
  Metrics.incr c;
  Metrics.incr ~by:41 c;
  Alcotest.(check int) "counter accumulates" 42 (Metrics.counter_value c);
  (* Same name+labels yields the same cells; different labels are distinct
     series. *)
  let c' = Metrics.counter t "requests" in
  Metrics.incr c';
  Alcotest.(check int) "same handle" 43 (Metrics.counter_value c);
  let cs = Metrics.counter t ~labels:[ ("op", "solve") ] "requests" in
  Metrics.incr cs;
  Alcotest.(check int) "labeled series independent" 43 (Metrics.counter_value c);
  Alcotest.(check (option int)) "find_counter unlabeled" (Some 43)
    (Metrics.find_counter t "requests");
  Alcotest.(check (option int)) "find_counter labeled" (Some 1)
    (Metrics.find_counter t ~labels:[ ("op", "solve") ] "requests");
  Alcotest.(check (option int)) "find_counter missing" None (Metrics.find_counter t "nope");
  let g = Metrics.gauge t "depth" in
  Metrics.gauge_set g 5.0;
  Metrics.gauge_add g 2.5;
  Metrics.gauge_add g (-1.5);
  Alcotest.(check (float 1e-9)) "gauge set/add" 6.0 (Metrics.gauge_value g);
  (* Kind clash on an existing name must be rejected. *)
  (match Metrics.gauge t "requests" with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "kind clash accepted");
  (* Callback metrics are sampled at snapshot time. *)
  let v = ref 7 in
  Metrics.counter_fn t "sampled" (fun () -> !v);
  v := 9;
  Alcotest.(check (option int)) "counter_fn sees latest" (Some 9)
    (Metrics.find_counter t "sampled")

let test_disabled_registry () =
  let t = Metrics.create ~enabled:false () in
  Alcotest.(check bool) "reports disabled" false (Metrics.enabled t);
  let c = Metrics.counter t "x" in
  Metrics.incr ~by:1000 c;
  Alcotest.(check int) "no-op counter" 0 (Metrics.counter_value c);
  let h = Metrics.histogram t "h" in
  Metrics.observe h 1.0;
  Alcotest.(check int) "snapshot is empty" 0 (List.length (Metrics.snapshot t));
  Alcotest.(check string) "nothing to scrape" "" (Expo.render t)

(* ------------------------------------------------------------------ *)
(* Metrics: histogram bucket boundaries *)

let test_histogram_bucket_boundaries () =
  let t = Metrics.create () in
  let h = Metrics.histogram t ~buckets:[| 1.0; 5.0; 10.0 |] "lat" in
  (* Prometheus le semantics: a value on a bound belongs to that bucket. *)
  List.iter (Metrics.observe h) [ 0.2; 1.0; 1.0001; 5.0; 10.0; 11.0 ];
  let s = Option.get (Metrics.find_histogram t "lat") in
  Alcotest.(check int) "total includes overflow" 6 s.Metrics.total;
  Alcotest.(check (float 1e-9)) "sum" 28.2001 s.Metrics.sum;
  (match s.Metrics.buckets with
   | [ (1.0, a); (5.0, b); (10.0, c) ] ->
     Alcotest.(check int) "le=1 cumulative" 2 a;
     Alcotest.(check int) "le=5 cumulative" 4 b;
     Alcotest.(check int) "le=10 cumulative" 5 c
   | other ->
     Alcotest.failf "unexpected buckets: %s"
       (String.concat ";" (List.map (fun (le, n) -> Printf.sprintf "%g:%d" le n) other)));
  (* Quantiles: interpolated within the holding bucket; overflow ranks
     report the largest finite bound; empty histograms report 0. *)
  Alcotest.(check bool) "p50 inside (1,5]" true
    (let q = Metrics.hist_quantile s 0.5 in
     q > 1.0 && q <= 5.0);
  Alcotest.(check (float 1e-9)) "overflow rank clamps" 10.0 (Metrics.hist_quantile s 0.999);
  let empty = Metrics.histogram t ~buckets:[| 1.0 |] "empty" in
  ignore empty;
  Alcotest.(check (float 1e-9)) "empty quantile" 0.0
    (Metrics.hist_quantile (Option.get (Metrics.find_histogram t "empty")) 0.5);
  (* Bad bounds are rejected up front. *)
  List.iter
    (fun bad ->
      match Metrics.histogram t ~buckets:bad "bad" with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "bad bounds accepted")
    [ [||]; [| 2.0; 1.0 |]; [| 1.0; 1.0 |]; [| 1.0; Float.infinity |] ]

let test_histogram_default_ladder () =
  (* The default latency ladder is strictly increasing and spans
     sub-millisecond to ten seconds, so both cache hits and budgeted
     solves land in interior buckets. *)
  let b = Metrics.default_latency_buckets in
  Alcotest.(check bool) "spans down to 0.05 ms" true (b.(0) <= 0.05);
  Alcotest.(check bool) "spans up to 10 s" true (b.(Array.length b - 1) >= 10_000.0);
  Array.iteri (fun i v -> if i > 0 && v <= b.(i - 1) then Alcotest.fail "ladder not increasing") b

(* ------------------------------------------------------------------ *)
(* Metrics: multi-domain hammer *)

let test_multi_domain_merge () =
  let t = Metrics.create ~shards:4 () in
  let c = Metrics.counter t "hits" in
  let h = Metrics.histogram t ~buckets:[| 10.0; 100.0 |] "obs" in
  let g = Metrics.gauge t "level" in
  let domains = 4 and per_domain = 25_000 in
  let worker seed () =
    let rng = Prng.create seed in
    for _ = 1 to per_domain do
      Metrics.incr c;
      Metrics.observe h (Prng.float rng 200.0);
      Metrics.gauge_add g 1.0
    done
  in
  let ds = List.init domains (fun i -> Domain.spawn (worker (100 + i))) in
  List.iter Domain.join ds;
  let n = domains * per_domain in
  Alcotest.(check int) "counter merged across domains" n (Metrics.counter_value c);
  Alcotest.(check (float 1e-9)) "gauge adds merged" (float_of_int n) (Metrics.gauge_value g);
  let s = Option.get (Metrics.find_histogram t "obs") in
  Alcotest.(check int) "histogram total merged" n s.Metrics.total;
  (match List.rev s.Metrics.buckets with
   | (_, le_last) :: _ ->
     Alcotest.(check bool) "cumulative counts monotone" true (le_last <= n)
   | [] -> Alcotest.fail "no buckets")

(* ------------------------------------------------------------------ *)
(* Exposition *)

let test_expo_sanitize_and_escape () =
  Alcotest.(check string) "dots to underscores" "cache_hit" (Expo.sanitize_name "cache.hit");
  Alcotest.(check string) "leading digit prefixed" "_9lives" (Expo.sanitize_name "9lives");
  Alcotest.(check string) "colons kept" "spp:ratio" (Expo.sanitize_name "spp:ratio");
  Alcotest.(check string) "escapes" "a\\\\b\\\"c\\nd" (Expo.escape_label_value "a\\b\"c\nd")

let test_expo_render () =
  let t = Metrics.create () in
  Metrics.incr ~by:3 (Metrics.counter t ~help:"Cache hits" "cache.hit");
  Metrics.incr (Metrics.counter t ~labels:[ ("algo", "dc\"x") ] "spp_algo_wins_total");
  Metrics.gauge_set (Metrics.gauge t "spp_queue_depth") 2.0;
  let h = Metrics.histogram t ~buckets:[| 1.0; 5.0 |] "spp_solve_ms" in
  List.iter (Metrics.observe h) [ 0.5; 3.0; 30.0 ];
  let out = Expo.render t in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "contains %S" needle) true (contains ~needle out))
    [ "# HELP cache_hit Cache hits"; "# TYPE cache_hit counter"; "cache_hit 3";
      "spp_algo_wins_total{algo=\"dc\\\"x\"} 1"; "# TYPE spp_queue_depth gauge";
      "spp_queue_depth 2"; "# TYPE spp_solve_ms histogram"; "spp_solve_ms_bucket{le=\"1\"} 1";
      "spp_solve_ms_bucket{le=\"5\"} 2"; "spp_solve_ms_bucket{le=\"+Inf\"} 3";
      "spp_solve_ms_count 3" ];
  Alcotest.(check bool) "ends with newline" true
    (String.length out > 0 && out.[String.length out - 1] = '\n')

(* ------------------------------------------------------------------ *)
(* Promtext: scrape text parses back to the numbers that produced it *)

let test_promtext_parse_and_percentiles () =
  let t = Metrics.create () in
  Metrics.incr ~by:7 (Metrics.counter t "spp_requests_total");
  Metrics.incr ~by:3
    (Metrics.counter t ~labels:[ ("algo", "dc") ] "spp_algo_wins_total");
  Metrics.incr ~by:2
    (Metrics.counter t ~labels:[ ("algo", "bb") ] "spp_algo_wins_total");
  Metrics.gauge_set (Metrics.gauge t "spp_gc_heap_words") 12345.0;
  let h = Metrics.histogram t ~buckets:[| 1.0; 5.0; 25.0; 125.0 |] "spp_request_ms" in
  let rng = Prng.create 97 in
  for _ = 1 to 500 do
    Metrics.observe h (Prng.float rng 150.0)
  done;
  let samples = Promtext.parse (Expo.render t) in
  Alcotest.(check (option (float 1e-9))) "counter value" (Some 7.0)
    (Promtext.value samples "spp_requests_total");
  Alcotest.(check (option (float 1e-9))) "labeled counter" (Some 3.0)
    (Promtext.value ~labels:[ ("algo", "dc") ] samples "spp_algo_wins_total");
  Alcotest.(check (float 1e-9)) "sum over label sets" 5.0
    (Promtext.sum samples "spp_algo_wins_total");
  Alcotest.(check (list (pair string (float 1e-9)))) "label_values sorted"
    [ ("bb", 2.0); ("dc", 3.0) ]
    (Promtext.label_values samples ~name:"spp_algo_wins_total" ~label:"algo");
  Alcotest.(check (option (float 1e-9))) "gauge value" (Some 12345.0)
    (Promtext.value samples "spp_gc_heap_words");
  Alcotest.(check (list string)) "histogram families" [ "spp_request_ms" ]
    (Promtext.histogram_names samples);
  (* The reassembled histogram must estimate the same percentiles as the
     in-process snapshot: `spp top` quotes p50/p95/p99 straight off a
     scrape, so the text round-trip may not distort them. *)
  let direct = Option.get (Metrics.find_histogram t "spp_request_ms") in
  let scraped = Option.get (Promtext.histogram samples "spp_request_ms") in
  Alcotest.(check int) "total survives the round-trip" direct.Metrics.total
    scraped.Metrics.total;
  Alcotest.(check (float 1e-6)) "sum survives the round-trip" direct.Metrics.sum
    scraped.Metrics.sum;
  List.iter
    (fun q ->
      Alcotest.(check (float 1e-6))
        (Printf.sprintf "p%g agrees with the direct snapshot" (q *. 100.0))
        (Metrics.hist_quantile direct q)
        (Metrics.hist_quantile scraped q))
    [ 0.5; 0.95; 0.99 ]

(* ------------------------------------------------------------------ *)
(* Profile: ambient per-domain solver counters *)

let test_profile_ambient_counters () =
  Profile.reset ();
  Alcotest.(check bool) "starts zero" true (Profile.is_zero (Profile.read ()));
  Profile.add_pivots 3;
  Profile.add_bb_nodes 20;
  Profile.add_bb_pruned 7;
  Profile.add_colgen_columns 4;
  Profile.add_colgen_rounds 2;
  Profile.add_pivots 1;
  let s = Profile.read () in
  Alcotest.(check int) "pivots accumulate" 4 s.Profile.pivots;
  Alcotest.(check int) "bb nodes" 20 s.Profile.bb_nodes;
  Alcotest.(check int) "bb pruned" 7 s.Profile.bb_pruned;
  Alcotest.(check int) "colgen columns" 4 s.Profile.colgen_columns;
  Alcotest.(check int) "colgen rounds" 2 s.Profile.colgen_rounds;
  (* Each domain owns its accumulator: a racing member's counts must not
     bleed into the engine domain that spawned it. *)
  let remote =
    Domain.join
      (Domain.spawn (fun () ->
           Profile.reset ();
           Profile.add_pivots 1000;
           (Profile.read ()).Profile.pivots))
  in
  Alcotest.(check int) "remote domain sees its own work" 1000 remote;
  Alcotest.(check int) "this domain unaffected" 4 (Profile.read ()).Profile.pivots;
  (* The process-wide switch turns every add into a no-op. *)
  Profile.set_enabled false;
  Fun.protect
    ~finally:(fun () -> Profile.set_enabled true)
    (fun () ->
      Profile.add_pivots 999;
      Alcotest.(check bool) "switch reported off" false (Profile.enabled ());
      Alcotest.(check int) "disabled adds dropped" 4 (Profile.read ()).Profile.pivots);
  Profile.reset ();
  Alcotest.(check bool) "reset zeroes" true (Profile.is_zero (Profile.read ()))

(* ------------------------------------------------------------------ *)
(* Runtime: GC / CPU gauges visible on a live scrape *)

let test_runtime_gauges_on_live_scrape () =
  let reg = Metrics.create () in
  (* OCaml 5's [Gc.quick_stat] reports [heap_words] 0 until the first
     major cycle completes; force one so the assertion below does not
     depend on how much the suite allocated before this test. *)
  Gc.full_major ();
  let sampler = Runtime.start ~interval_ms:10_000.0 reg in
  let ep = Spp_server.Metrics_http.start ~port:0 reg in
  Fun.protect
    ~finally:(fun () ->
      Spp_server.Metrics_http.stop ep;
      Runtime.stop sampler)
    (fun () ->
      let body =
        match
          Spp_server.Metrics_http.fetch ~host:"127.0.0.1"
            ~port:(Spp_server.Metrics_http.port ep) ()
        with
        | Ok body -> body
        | Error e -> Alcotest.failf "scrape failed: %s" e
      in
      let samples = Promtext.parse body in
      let get name =
        match Promtext.value samples name with
        | Some v -> v
        | None -> Alcotest.failf "scrape lacks %s" name
      in
      (* [start] samples synchronously, so the first scrape already has
         real numbers: a live OCaml process cannot have an empty major
         heap or zero CPU time. *)
      Alcotest.(check bool) "heap words positive" true (get "spp_gc_heap_words" > 0.0);
      Alcotest.(check bool) "cpu seconds non-negative" true
        (get "spp_process_cpu_seconds" >= 0.0);
      Alcotest.(check bool) "minor collections counter present" true
        (get "spp_gc_minor_collections_total" >= 0.0);
      Alcotest.(check bool) "minor words counter present" true
        (get "spp_gc_minor_words_total" >= 0.0))

(* A peer that stalls mid-headers holds only its own connection thread:
   the next scrape is answered at once, not after the stalled peer's 2 s
   budget runs out. *)
let test_scrape_beside_stalled_peer () =
  let reg = Metrics.create () in
  Metrics.incr (Metrics.counter reg "spp_probe_total");
  let ep = Spp_server.Metrics_http.start ~port:0 reg in
  let port = Spp_server.Metrics_http.port ep in
  let stalled = Framing.connect (Framing.Tcp ("127.0.0.1", port)) in
  Fun.protect
    ~finally:(fun () ->
      Unix.close stalled;
      Spp_server.Metrics_http.stop ep)
    (fun () ->
      let partial = "GET /metrics HTTP/1.1\r\nHost: 127.0.0.1\r\n" in
      ignore (Unix.write_substring stalled partial 0 (String.length partial));
      (* Let the endpoint accept the stalled peer before the scrape. *)
      Thread.delay 0.1;
      let t0 = Spp_util.Clock.now_ms () in
      (match Spp_server.Metrics_http.fetch ~host:"127.0.0.1" ~port () with
       | Ok body ->
         Alcotest.(check bool) "scrape body" true (contains ~needle:"spp_probe_total" body)
       | Error e -> Alcotest.failf "scrape failed: %s" e);
      let ms = Spp_util.Clock.elapsed_ms t0 in
      Alcotest.(check bool) (Printf.sprintf "scrape took %.0f ms (< 1000)" ms) true (ms < 1000.0))

(* ------------------------------------------------------------------ *)
(* Traces *)

let is_hex s = String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) s

let test_trace_ids () =
  let a = Trace.gen_id () and b = Trace.gen_id () in
  Alcotest.(check int) "16 hex digits" 16 (String.length a);
  Alcotest.(check bool) "hex alphabet" true (is_hex a && is_hex b);
  Alcotest.(check bool) "ids distinct" true (a <> b);
  let t = Trace.create ~id:"client-chosen" ~name:"req" () in
  Alcotest.(check string) "client id honoured" "client-chosen" (Trace.id t);
  let t' = Trace.create ~id:"" ~name:"req" () in
  Alcotest.(check bool) "empty id replaced" true (String.length (Trace.id t') = 16)

let test_trace_span_tree () =
  let t = Trace.create ~id:"abc" ~name:"request" () in
  let root = Trace.root t in
  let q = Trace.span t ~parent:root "queue.wait" in
  Trace.finish t q;
  let solved =
    Trace.with_span t ~parent:root "solve" (fun solve ->
        let v = Trace.span t ~parent:solve "validate" in
        Trace.finish ~fields:[ ("ok", Field.Bool true) ] t v;
        17)
  in
  Alcotest.(check int) "with_span returns" 17 solved;
  (match Trace.with_span t ~parent:root "boom" (fun _ -> failwith "kaput") with
   | exception Failure _ -> ()
   | _ -> Alcotest.fail "exception swallowed");
  Trace.close ~fields:[ ("winner", Field.String "dc") ] t;
  Alcotest.(check bool) "total stamped" true (Trace.total_ms t >= 0.0);
  let js = Trace.to_json t in
  Alcotest.(check bool) "one line" false (String.contains js '\n');
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "json has %S" needle) true (contains ~needle js))
    [ "\"trace_id\":\"abc\""; "\"name\":\"request\""; "\"queue.wait\""; "\"validate\"";
      "\"outcome\":\"raised\""; "\"winner\":\"dc\"" ];
  let tree = Trace.render t in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "render has %S" needle) true (contains ~needle tree))
    [ "request"; "queue.wait"; "solve"; "validate" ];
  (* Children must render chronologically: queue.wait before solve. *)
  let idx needle =
    let nl = String.length needle in
    let rec go i =
      if i + nl > String.length tree then Alcotest.failf "%S not rendered" needle
      else if String.sub tree i nl = needle then i
      else go (i + 1)
    in
    go 0
  in
  Alcotest.(check bool) "chronological order" true (idx "queue.wait" < idx "solve")

let test_trace_finish_idempotent () =
  let t = Trace.create ~name:"r" () in
  let s = Trace.span t ~parent:(Trace.root t) "once" in
  Trace.finish t s;
  let js1 = Trace.to_json t in
  Thread.delay 0.01;
  Trace.finish t s;
  (* A second finish must not restamp the duration (the fields and tree
     are unchanged, so the whole encoding is identical). *)
  Alcotest.(check string) "duration stamped once" js1 (Trace.to_json t)

let test_trace_graft_rebases_offsets () =
  let t = Trace.create ~id:"feedface01020304" ~name:"proxy" () in
  let up = Trace.span t ~parent:(Trace.root t) "upstream" in
  let remote =
    { Trace.i_name = "request"; i_start_ms = 0.0; i_dur_ms = Some 12.0;
      i_fields = [ ("winner", Field.String "dc") ];
      i_children =
        [ { Trace.i_name = "race"; i_start_ms = 2.5; i_dur_ms = Some 9.0;
            i_fields = [ ("bb_nodes", Field.Int 28) ]; i_children = [] };
          { Trace.i_name = "open.span"; i_start_ms = 3.0; i_dur_ms = None;
            i_fields = []; i_children = [] } ] }
  in
  let offset = Trace.start_ms up in
  Trace.graft t ~parent:up ~offset_ms:offset remote;
  Trace.finish t up;
  Trace.close t;
  let js = Trace.to_json t in
  let num = function
    | Some (Json.Float f) -> Some f
    | Some (Json.Int i) -> Some (float_of_int i)
    | _ -> None
  in
  let j =
    match Json.of_string js with Ok j -> j | Error e -> Alcotest.failf "bad json: %s" e
  in
  let spans j = match Json.member "spans" j with Some (Json.List l) -> l | _ -> [] in
  let child name j =
    match
      List.find_opt (fun s -> Json.member "name" s = Some (Json.String name)) (spans j)
    with
    | Some s -> s
    | None -> Alcotest.failf "span %S missing in %s" name js
  in
  let root = Option.get (Json.member "root" j) in
  let request = child "request" (child "upstream" root) in
  (* The remote epoch lands on the upstream span's start. *)
  Alcotest.(check (option (float 1e-4))) "request start rebased" (Some offset)
    (num (Json.member "start_ms" request));
  Alcotest.(check (option (float 1e-4))) "race start rebased" (Some (offset +. 2.5))
    (num (Json.member "start_ms" (child "race" request)));
  Alcotest.(check (option (float 1e-4))) "duration preserved" (Some 12.0)
    (num (Json.member "ms" request));
  Alcotest.(check (option (float 1e-4))) "open remote span stays open" None
    (num (Json.member "ms" (child "open.span" request)));
  let fields s = match Json.member "fields" s with Some (Json.Obj kvs) -> kvs | _ -> [] in
  Alcotest.(check bool) "fields preserved" true
    (List.mem_assoc "winner" (fields request)
     && List.mem_assoc "bb_nodes" (fields (child "race" request)));
  (* Children must come back in chronological order despite the
     newest-first internal representation. *)
  match List.map (fun s -> Json.member "name" s) (spans request) with
  | [ Some (Json.String "race"); Some (Json.String "open.span") ] -> ()
  | _ -> Alcotest.failf "grafted children out of order: %s" js

(* [Trace.import] is the one reader of the [Trace.tree] shape: what it
   reads back is what the trace recorded, with floats at six significant
   digits. *)
let rec show_imported (i : Trace.imported) =
  Printf.sprintf "%s@%g%s[%s]{%s}" i.Trace.i_name i.Trace.i_start_ms
    (match i.Trace.i_dur_ms with Some d -> Printf.sprintf "+%g" d | None -> "(open)")
    (String.concat ","
       (List.map (fun (k, v) -> k ^ "=" ^ Json.to_string (Field.to_json v)) i.Trace.i_fields))
    (String.concat ";" (List.map show_imported i.Trace.i_children))

let imported = Alcotest.testable (fun ppf i -> Format.pp_print_string ppf (show_imported i)) ( = )

let test_trace_import_reads_tree () =
  let t = Trace.create ~id:"tree0001" ~name:"proxy" () in
  let up = Trace.span t ~parent:(Trace.root t) "upstream" in
  Trace.add_fields t up [ ("backend", Field.String "b1"); ("ratio", Field.Float (1.0 /. 3.0)) ];
  let leaf name start dur fields =
    { Trace.i_name = name; i_start_ms = start; i_dur_ms = dur; i_fields = fields; i_children = [] }
  in
  let remote =
    { (leaf "request" 0.0 (Some 12.0)
         [ ("winner", Field.String "dc"); ("nodes", Field.Int 28); ("gap", Field.Float 0.125);
           ("degraded", Field.Bool false); ("whole", Field.Float 3.0) ])
      with
      Trace.i_children =
        [ { (leaf "race" 2.5 (Some 9.0) []) with
            Trace.i_children = [ leaf "algo:dc" 3.25 (Some 1.5) [ ("status", Field.String "solved") ] ] };
          leaf "open.span" 3.0 None [] ] }
  in
  Trace.graft t ~parent:up ~offset_ms:10.0 remote;
  Trace.finish t up;
  let rec rebase d (i : Trace.imported) =
    { i with
      Trace.i_start_ms = i.Trace.i_start_ms +. d;
      i_children = List.map (rebase d) i.Trace.i_children }
  in
  let check_root what j =
    match Trace.import j with
    | None -> Alcotest.failf "%s: no root" what
    | Some root ->
      Alcotest.(check string) (what ^ ": root name") "proxy" root.Trace.i_name;
      Alcotest.(check (float 0.0)) (what ^ ": root offset") 0.0 root.Trace.i_start_ms;
      Alcotest.(check (option (float 0.0))) (what ^ ": open root has no ms") None root.Trace.i_dur_ms;
      (match root.Trace.i_children with
       | [ u ] ->
         Alcotest.(check string) (what ^ ": child") "upstream" u.Trace.i_name;
         Alcotest.(check (float 1e-3)) (what ^ ": upstream offset") (Trace.start_ms up)
           u.Trace.i_start_ms;
         Alcotest.(check bool) (what ^ ": upstream finished") true (u.Trace.i_dur_ms <> None);
         Alcotest.(check (list string)) (what ^ ": six significant digits")
           [ "\"b1\""; "0.333333" ]
           (List.map (fun (_, v) -> Json.to_string (Field.to_json v)) u.Trace.i_fields);
         Alcotest.(check (list imported)) (what ^ ": grafted tree, every start rebased")
           [ rebase 10.0 remote ] u.Trace.i_children
       | cs -> Alcotest.failf "%s: %d children under the root" what (List.length cs))
  in
  check_root "value" (Trace.tree t);
  check_root "text"
    (match Json.of_string (Trace.to_json t) with Ok j -> j | Error e -> Alcotest.fail e);
  (* Malformed nodes are dropped with their subtrees; bad field values too. *)
  let node ?(extra = []) name = Json.Obj ((("name", name) :: extra)) in
  let bad =
    Json.Obj
      [ ("trace_id", Json.String "x");
        ( "root",
          node (Json.String "r")
            ~extra:
              [ ( "spans",
                  Json.List
                    [ node (Json.String "kept") ~extra:[ ("start_ms", Json.Int 4) ];
                      Json.Obj [ ("start_ms", Json.Int 1) ];
                      node (Json.Int 5) ~extra:[ ("spans", Json.List [ node (Json.String "lost") ]) ];
                      Json.String "junk";
                      node (Json.String "fields")
                        ~extra:
                          [ ( "fields",
                              Json.Obj
                                [ ("l", Json.List [ Json.Int 1 ]); ("n", Json.Null);
                                  ("s", Json.String "x"); ("o", Json.Obj []) ] ) ] ] ) ] ) ]
  in
  Alcotest.(check (option imported)) "malformed nodes dropped"
    (Some
       { (leaf "r" 0.0 None []) with
         Trace.i_children =
           [ leaf "kept" 4.0 None []; leaf "fields" 0.0 None [ ("s", Field.String "x") ] ] })
    (Trace.import bad);
  Alcotest.(check (option imported)) "no root" None (Trace.import (Json.Obj []));
  Alcotest.(check (option imported)) "nameless root" None
    (Trace.import (Json.Obj [ ("root", Json.Obj [ ("start_ms", Json.Int 0) ]) ]))

(* ------------------------------------------------------------------ *)
(* Trace id over the wire *)

let test_trace_id_wire_roundtrip () =
  let req =
    Protocol.Solve
      { instance = "rect 0 1/2 1"; budget_ms = Some 50.0; deadline_ms = None; algos = None;
        trace_id = Some "0123456789abcdef" }
  in
  (match Protocol.decode_request (Protocol.encode_request req) with
   | Ok req' -> Alcotest.(check bool) "request round-trips" true (req = req')
   | Error e -> Alcotest.failf "decode failed: %s" e);
  let resp =
    Protocol.Solve_ok
      { winner = "dc"; source = "computed"; height = "1"; time_ms = 1.0;
        placement = "rect 0 0 0"; degraded = false; lower_bound = None; gap = None;
        trace_id = Some "0123456789abcdef";
        trace =
          Some
            (Json.Obj
               [ ("name", Json.String "request"); ("start_ms", Json.Float 0.);
                 ("ms", Json.Float 1.2);
                 ("children", Json.List [ Json.Obj [ ("name", Json.String "solve") ] ]) ]) }
  in
  match Protocol.decode_response (Protocol.encode_response resp) with
  | Ok resp' -> Alcotest.(check bool) "response round-trips" true (resp = resp')
  | Error e -> Alcotest.failf "decode failed: %s" e

let temp_path ext =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "spp_obs_%d_%d.%s" (Unix.getpid ()) (Random.int 1_000_000) ext)

let instance_text seed n =
  let rng = Prng.create seed in
  Io.prec_to_string (Generators.random_prec rng ~n ~k:8 ~h_den:4 ~shape:`Series_parallel)

let with_server ?slow_ms f =
  let sock = temp_path "sock" in
  let address = Framing.Unix_sock sock in
  let srv =
    Server.start
      { Server.address; workers = 1; queue_depth = 8; engine = Engine.create ();
        default_budget_ms = Some 2000.0; solve_workers = Some 1;
        max_request_bytes = 1 lsl 16; slow_ms; idle_timeout_ms = None;
        read_timeout_ms = None; retry_after_ms = Server.default_retry_after_ms;
        max_worker_restarts = None;
        deadline_floor_ms = Server.default_deadline_floor_ms }
  in
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      Server.wait srv)
    (fun () -> f address)

let test_trace_id_live_echo () =
  with_server (fun address ->
      Client.with_connection address (fun c ->
          match
            Client.request c
              (Protocol.Solve
                 { instance = instance_text 61 6; budget_ms = None; deadline_ms = None;
                   algos = None; trace_id = Some "feedface00000001" })
          with
          | Protocol.Solve_ok r ->
            Alcotest.(check (option string)) "server echoes the client trace id"
              (Some "feedface00000001") r.Protocol.trace_id
          | other -> Alcotest.failf "unexpected reply: %s" (Protocol.encode_response other));
      (* Untraced requests carry no id. *)
      Client.with_connection address (fun c ->
          match
            Client.request c
              (Protocol.Solve
                 { instance = instance_text 61 6; budget_ms = None; deadline_ms = None;
                   algos = None; trace_id = None })
          with
          | Protocol.Solve_ok r ->
            Alcotest.(check (option string)) "no id unless requested" None r.Protocol.trace_id
          | other -> Alcotest.failf "unexpected reply: %s" (Protocol.encode_response other)))

(* ------------------------------------------------------------------ *)
(* Logging *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* The logger is process-global; every test that redirects it must restore
   stderr/Info on the way out so later suites are unaffected. *)
let with_log_file f =
  let path = temp_path "log" in
  Log.set_file path;
  Fun.protect
    ~finally:(fun () ->
      Log.set_channel stderr;
      Log.set_level Log.Info;
      if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let test_log_levels_and_shape () =
  Alcotest.(check bool) "level names parse" true
    (Log.level_of_string "warn" = Some Log.Warn
     && Log.level_of_string "WARNING" = Some Log.Warn
     && Log.level_of_string "debug" = Some Log.Debug
     && Log.level_of_string "nope" = None);
  with_log_file (fun path ->
      Log.set_level Log.Warn;
      Alcotest.(check bool) "debug disabled at warn" false (Log.enabled Log.Debug);
      Alcotest.(check bool) "error enabled at warn" true (Log.enabled Log.Error);
      Log.debug "hidden" [];
      Log.info "hidden too" [];
      Log.warn "shown" [ ("n", Field.Int 3); ("f", Field.Float 0.5); ("b", Field.Bool true) ];
      Log.error "also shown" [ ("msg", Field.String "a\"b\nc") ];
      let out = read_file path in
      Alcotest.(check bool) "below-threshold dropped" false (contains ~needle:"hidden" out);
      let lines = String.split_on_char '\n' (String.trim out) in
      Alcotest.(check int) "one line per event" 2 (List.length lines);
      List.iter
        (fun needle -> Alcotest.(check bool) needle true (contains ~needle out))
        [ "\"level\":\"warn\""; "\"msg\":\"shown\""; "\"n\":3"; "\"f\":0.5"; "\"b\":true";
          "\"level\":\"error\""; "\"msg\":\"a\\\"b\\nc\"" ];
      (* Every line is one of our JSON objects: starts with the ts field. *)
      List.iter
        (fun l ->
          Alcotest.(check bool) "line starts a JSON object" true
            (String.length l > 6 && String.sub l 0 6 = "{\"ts\":"))
        lines)

(* Every log line is one [Json] object: msg and fields read back exactly,
   whatever bytes they hold. *)
let test_log_lines_parse_back () =
  let nasty = "say \"hi\" \\ back\nslash \001\031 tab\t caf\xc3\xa9 \xe2\x9c\x93" in
  with_log_file (fun path ->
      Log.set_level Log.Debug;
      let before = Unix.gettimeofday () in
      Log.info nasty
        [ ("s", Field.String nasty); ("i", Field.Int (-7)); ("f", Field.Float 0.25);
          ("b", Field.Bool false) ];
      Log.debug "plain" [];
      let lines = String.split_on_char '\n' (String.trim (read_file path)) in
      Alcotest.(check int) "one line per event" 2 (List.length lines);
      let parsed =
        List.map
          (fun l -> match Json.of_string l with Ok j -> j | Error e -> Alcotest.failf "%s: %s" e l)
          lines
      in
      let j = List.hd parsed in
      let get k f = Option.bind (Json.member k j) f in
      Alcotest.(check (option string)) "msg reads back" (Some nasty) (get "msg" Json.get_string);
      Alcotest.(check (option string)) "string field reads back" (Some nasty)
        (get "s" Json.get_string);
      Alcotest.(check (option int)) "int field" (Some (-7)) (get "i" Json.get_int);
      Alcotest.(check (option (float 0.0))) "float field" (Some 0.25) (get "f" Json.get_float);
      Alcotest.(check (option bool)) "bool field" (Some false) (get "b" Json.get_bool);
      Alcotest.(check (option string)) "level" (Some "info") (get "level" Json.get_string);
      match get "ts" Json.get_float with
      | None -> Alcotest.fail "no ts"
      | Some ts ->
        Alcotest.(check (float 0.0)) "ts to the millisecond" (Float.round (ts *. 1000.0) /. 1000.0) ts;
        Alcotest.(check bool) "ts is wall-clock now" true
          (ts >= before -. 0.001 && ts <= Unix.gettimeofday () +. 0.001))

let test_slow_request_log () =
  with_log_file (fun path ->
      (* slow_ms = 0: every request is slow, so one solve must produce a
         warn line with its trace id and rendered span tree. *)
      with_server ~slow_ms:0.0 (fun address ->
          Client.with_connection address (fun c ->
              match
                Client.request c
                  (Protocol.Solve
                     { instance = instance_text 71 6; budget_ms = None; deadline_ms = None;
                       algos = None; trace_id = Some "slowslowslowslow" })
              with
              | Protocol.Solve_ok _ -> ()
              | other ->
                Alcotest.failf "unexpected reply: %s" (Protocol.encode_response other)));
      let out = read_file path in
      List.iter
        (fun needle ->
          Alcotest.(check bool) (Printf.sprintf "log has %S" needle) true (contains ~needle out))
        [ "slow request"; "slowslowslowslow"; "queue.wait"; "solve" ];
      (* The warn line parses, and carries the span tree as an object. *)
      let line =
        match
          List.find_opt (contains ~needle:"slow request") (String.split_on_char '\n' out)
        with
        | Some l -> l
        | None -> Alcotest.fail "no slow-request line"
      in
      let j = match Json.of_string line with Ok j -> j | Error e -> Alcotest.failf "%s: %s" e line in
      let root =
        match Option.bind (Json.member "trace" j) (Json.member "root") with
        | Some r -> r
        | None -> Alcotest.failf "no trace object with a root: %s" line
      in
      Alcotest.(check (option string)) "root span" (Some "request")
        (Option.bind (Json.member "name" root) Json.get_string);
      let rec has_span name j =
        Option.bind (Json.member "name" j) Json.get_string = Some name
        ||
        match Json.member "spans" j with
        | Some (Json.List l) -> List.exists (has_span name) l
        | _ -> false
      in
      Alcotest.(check bool) "tree has queue.wait" true (has_span "queue.wait" root))

let () =
  Alcotest.run "spp_obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counters and gauges" `Quick test_counters_and_gauges;
          Alcotest.test_case "disabled registry is a no-op" `Quick test_disabled_registry;
          Alcotest.test_case "histogram bucket boundaries" `Quick test_histogram_bucket_boundaries;
          Alcotest.test_case "default latency ladder" `Quick test_histogram_default_ladder;
          Alcotest.test_case "multi-domain hammer merge" `Quick test_multi_domain_merge;
        ] );
      ( "expo",
        [
          Alcotest.test_case "sanitize and escape" `Quick test_expo_sanitize_and_escape;
          Alcotest.test_case "prometheus text render" `Quick test_expo_render;
          Alcotest.test_case "promtext parse and percentiles" `Quick
            test_promtext_parse_and_percentiles;
        ] );
      ( "profile",
        [
          Alcotest.test_case "ambient per-domain counters" `Quick
            test_profile_ambient_counters;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "gc gauges on a live scrape" `Quick
            test_runtime_gauges_on_live_scrape;
          Alcotest.test_case "scrape beside a stalled peer" `Quick
            test_scrape_beside_stalled_peer;
        ] );
      ( "trace",
        [
          Alcotest.test_case "ids" `Quick test_trace_ids;
          Alcotest.test_case "span tree" `Quick test_trace_span_tree;
          Alcotest.test_case "finish is idempotent" `Quick test_trace_finish_idempotent;
          Alcotest.test_case "graft rebases remote offsets" `Quick
            test_trace_graft_rebases_offsets;
          Alcotest.test_case "trace id wire round-trip" `Quick test_trace_id_wire_roundtrip;
          Alcotest.test_case "live server echoes trace id" `Quick test_trace_id_live_echo;
          Alcotest.test_case "import reads the tree back" `Quick test_trace_import_reads_tree;
        ] );
      ( "log",
        [
          Alcotest.test_case "levels and line shape" `Quick test_log_levels_and_shape;
          Alcotest.test_case "slow-request log" `Quick test_slow_request_log;
          Alcotest.test_case "lines parse back" `Quick test_log_lines_parse_back;
        ] );
    ]
