(* Tests for Spp_engine: fingerprint canonicality, LRU accounting,
   telemetry export, cancellation tokens, the disk store, and the engine's
   caching / budget / never-worse-than-members guarantees. *)

module Q = Spp_num.Rat
module Rect = Spp_geom.Rect
module Placement = Spp_geom.Placement
module Prng = Spp_util.Prng
module Cancel = Spp_util.Cancel
module I = Spp_core.Instance
module Io = Spp_core.Io
module Validate = Spp_core.Validate
module Generators = Spp_workloads.Generators
module Fingerprint = Spp_engine.Fingerprint
module Lru = Spp_engine.Lru
module Telemetry = Spp_engine.Telemetry
module Portfolio = Spp_engine.Portfolio
module Store = Spp_engine.Store
module Engine = Spp_engine.Engine

let q = Q.of_ints

let random_prec seed n =
  let rng = Prng.create seed in
  Generators.random_prec rng ~n ~k:8 ~h_den:4 ~shape:`Series_parallel

let random_release seed n =
  let rng = Prng.create seed in
  Generators.random_release rng ~n ~k:2 ~h_den:4 ~r_den:2 ~load:1.3

let check_valid parsed p =
  let violations =
    match parsed with
    | Io.Prec inst -> Validate.check_prec inst p
    | Io.Release inst -> Validate.check_release inst p
  in
  Alcotest.(check int) "no violations" 0 (List.length violations)

(* ------------------------------------------------------------------ *)
(* Fingerprint *)

let test_fingerprint_order_independent () =
  let r0 = Rect.make ~id:0 ~w:(q 1 2) ~h:Q.one in
  let r1 = Rect.make ~id:1 ~w:(q 1 4) ~h:(q 3 4) in
  let dag = Spp_dag.Dag.of_edges ~nodes:[ 0; 1 ] ~edges:[ (0, 1) ] in
  let a = I.Prec.make [ r0; r1 ] dag in
  let b = I.Prec.make [ r1; r0 ] dag in
  Alcotest.(check string) "rect order ignored" (Fingerprint.prec a) (Fingerprint.prec b)

let test_fingerprint_distinguishes () =
  let a = random_prec 1 10 and b = random_prec 2 10 in
  if Fingerprint.prec a = Fingerprint.prec b then Alcotest.fail "distinct instances collide";
  (* An edge flip must change the fingerprint even with identical rects. *)
  let r0 = Rect.make ~id:0 ~w:(q 1 2) ~h:Q.one in
  let r1 = Rect.make ~id:1 ~w:(q 1 4) ~h:Q.one in
  let with_edge =
    I.Prec.make [ r0; r1 ] (Spp_dag.Dag.of_edges ~nodes:[ 0; 1 ] ~edges:[ (0, 1) ])
  in
  let without = I.Prec.unconstrained [ r0; r1 ] in
  if Fingerprint.prec with_edge = Fingerprint.prec without then
    Alcotest.fail "edge set not fingerprinted"

let test_fingerprint_variant_tagged () =
  (* A release instance never collides with a precedence instance, even
     with identical rectangles. *)
  let rect = Rect.make ~id:0 ~w:Q.one ~h:Q.one in
  let p = I.Prec.unconstrained [ rect ] in
  let r = I.Release.make ~k:1 [ { I.Release.rect; release = Q.zero } ] in
  if Fingerprint.prec p = Fingerprint.release r then Alcotest.fail "variants collide"

(* ------------------------------------------------------------------ *)
(* Lru *)

let test_lru_hit_miss_evict () =
  let c = Lru.create ~capacity:2 in
  Alcotest.(check (option int)) "miss" None (Lru.find c "a");
  Lru.add c "a" 1;
  Lru.add c "b" 2;
  Alcotest.(check (option int)) "hit a" (Some 1) (Lru.find c "a");
  (* "b" is now least recently used; adding "c" evicts it. *)
  Lru.add c "c" 3;
  Alcotest.(check (option int)) "b evicted" None (Lru.find c "b");
  Alcotest.(check (option int)) "a kept" (Some 1) (Lru.find c "a");
  Alcotest.(check (option int)) "c kept" (Some 3) (Lru.find c "c");
  let s = Lru.stats c in
  Alcotest.(check int) "hits" 3 s.Lru.hits;
  Alcotest.(check int) "misses" 2 s.Lru.misses;
  Alcotest.(check int) "evictions" 1 s.Lru.evictions;
  Alcotest.(check int) "size" 2 s.Lru.size

let test_lru_replace () =
  let c = Lru.create ~capacity:2 in
  Lru.add c "a" 1;
  Lru.add c "a" 9;
  Alcotest.(check (option int)) "replaced" (Some 9) (Lru.find c "a");
  Alcotest.(check int) "no eviction" 0 (Lru.stats c).Lru.evictions;
  Alcotest.check_raises "capacity 0 rejected"
    (Invalid_argument "Lru.create: capacity must be >= 1") (fun () ->
      ignore (Lru.create ~capacity:0))

let test_lru_find_hit () =
  let c = Lru.create ~capacity:2 in
  Alcotest.(check (option int)) "absent" None (Lru.find_hit c "a");
  Lru.add c "a" 1;
  Lru.add c "b" 2;
  Alcotest.(check (option int)) "present" (Some 1) (Lru.find_hit c "a");
  (* The hit promoted "a", so "b" is the one evicted. *)
  Lru.add c "c" 3;
  Alcotest.(check bool) "b evicted" false (Lru.mem c "b");
  let s = Lru.stats c in
  Alcotest.(check int) "hit counted" 1 s.Lru.hits;
  Alcotest.(check int) "absent key not counted" 0 s.Lru.misses

(* ------------------------------------------------------------------ *)
(* Telemetry *)

let test_telemetry_counters_events () =
  let tm = Telemetry.create () in
  Telemetry.incr tm "x";
  Telemetry.incr ~by:2 tm "x";
  Telemetry.incr tm "y";
  Alcotest.(check int) "counter x" 3 (Telemetry.counter tm "x");
  Alcotest.(check int) "absent counter" 0 (Telemetry.counter tm "z");
  Telemetry.record tm ~name:"ev" [ ("s", Telemetry.String "a\"b"); ("n", Telemetry.Int 7) ];
  let v = Telemetry.time tm ~name:"timed" ~fields:[] (fun () -> 42) in
  Alcotest.(check int) "time returns" 42 v;
  let events = Telemetry.events tm in
  Alcotest.(check int) "two events" 2 (List.length events);
  Alcotest.(check (list string)) "chronological" [ "ev"; "timed" ]
    (List.map (fun (e : Telemetry.event) -> e.Telemetry.name) events);
  let json = Telemetry.to_json_lines tm in
  let contains needle =
    let nh = String.length json and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub json i nn = needle || go (i + 1)) in
    Alcotest.(check bool) (Printf.sprintf "json contains %s" needle) true (nn = 0 || go 0)
  in
  contains "{\"counter\":\"x\",\"value\":3}";
  contains "\"event\":\"timed\"";
  contains "\"outcome\":\"ok\"";
  contains "\\\"";  (* the quote in "a\"b" is escaped *)
  ()

let test_telemetry_events_off () =
  let tm = Telemetry.create ~events:false () in
  Telemetry.incr tm "x";
  Telemetry.incr ~by:2 tm "x";
  Telemetry.record tm ~name:"ev" [ ("n", Telemetry.Int 7) ];
  Alcotest.(check int) "time returns" 42 (Telemetry.time tm ~name:"timed" ~fields:[] (fun () -> 42));
  Alcotest.(check int) "no events kept" 0 (List.length (Telemetry.events tm));
  Alcotest.(check int) "counters still count" 3 (Telemetry.counter tm "x");
  let lines =
    List.filter (( <> ) "") (String.split_on_char '\n' (Telemetry.to_json_lines tm))
  in
  Alcotest.(check (list string)) "only counter lines" [ "{\"counter\":\"x\",\"value\":3}" ] lines

(* ------------------------------------------------------------------ *)
(* Cancel *)

let test_cancel_tokens () =
  Alcotest.(check bool) "never not cancelled" false (Cancel.cancelled Cancel.never);
  Cancel.check Cancel.never;
  let t = Cancel.create () in
  Alcotest.(check bool) "fresh" false (Cancel.cancelled t);
  Cancel.cancel t;
  Alcotest.(check bool) "tripped" true (Cancel.cancelled t);
  Alcotest.check_raises "check raises" Cancel.Cancelled (fun () -> Cancel.check t);
  let zero = Cancel.with_deadline_ms 0.0 in
  Alcotest.(check bool) "zero deadline trips immediately" true (Cancel.cancelled zero);
  let far = Cancel.with_deadline_ms 60_000.0 in
  Alcotest.(check bool) "far deadline not tripped" false (Cancel.cancelled far)

let test_cancel_stops_exact_search () =
  let inst = random_prec 3 10 in
  let t = Cancel.create () in
  Cancel.cancel t;
  Alcotest.check_raises "order search aborts" Cancel.Cancelled (fun () ->
      ignore (Spp_exact.Order_search.best_prec ~cancel:t inst))

(* ------------------------------------------------------------------ *)
(* Store *)

let temp_store_dir () =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "spp_store_test_%d_%d" (Unix.getpid ()) (Random.int 1_000_000))

let test_store_roundtrip () =
  let dir = temp_store_dir () in
  let store = Store.create ~dir () in
  let inst = random_prec 7 8 in
  let p = Spp_core.List_schedule.prec inst in
  let fingerprint = Fingerprint.prec inst in
  Alcotest.(check bool) "initially absent" true
    (Store.find store ~rects:inst.rects ~fingerprint = None);
  Store.add store ~fingerprint ~winner:"ls" p;
  (match Store.find store ~rects:inst.rects ~fingerprint with
   | None -> Alcotest.fail "entry not found after add"
   | Some (winner, p') ->
     Alcotest.(check string) "winner" "ls" winner;
     Alcotest.(check string) "bit-identical placement"
       (Io.placement_to_string p) (Io.placement_to_string p'));
  (* A corrupt entry degrades to a miss, never an exception. *)
  Out_channel.with_open_text (Filename.concat dir (fingerprint ^ ".sol")) (fun oc ->
      Out_channel.output_string oc "garbage\n");
  Alcotest.(check bool) "corrupt entry is a miss" true
    (Store.find store ~rects:inst.rects ~fingerprint = None)

let test_store_bounded () =
  let dir = temp_store_dir () in
  (* A pre-existing orphaned temp file (crashed writer) is cleaned up. *)
  let orphan = Filename.concat dir "deadbeef.sol.tmp.1234.0" in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Out_channel.with_open_text orphan (fun oc -> Out_channel.output_string oc "partial");
  let store = Store.create ~max_entries:2 ~dir () in
  Alcotest.(check bool) "orphan tmp removed" false (Sys.file_exists orphan);
  Alcotest.(check int) "starts empty" 0 (Store.length store);
  let add_inst seed age =
    let inst = random_prec seed 6 in
    let fingerprint = Fingerprint.prec inst in
    Store.add store ~fingerprint ~winner:"ls" (Spp_core.List_schedule.prec inst);
    (* Prune order is by file mtime; pin it so "oldest" is unambiguous even
       on coarse-granularity filesystems. *)
    let path = Filename.concat dir (fingerprint ^ ".sol") in
    let t = Unix.gettimeofday () -. age in
    Unix.utimes path t t;
    (inst, fingerprint)
  in
  let _, fp_old = add_inst 21 300.0 in
  let _, fp_mid = add_inst 22 200.0 in
  Alcotest.(check int) "at cap" 2 (Store.length store);
  let _, fp_new = add_inst 23 100.0 in
  Alcotest.(check int) "pruned back to cap" 2 (Store.length store);
  Alcotest.(check bool) "oldest entry evicted" false
    (Sys.file_exists (Filename.concat dir (fp_old ^ ".sol")));
  Alcotest.(check bool) "newer entries survive" true
    (Sys.file_exists (Filename.concat dir (fp_mid ^ ".sol"))
     && Sys.file_exists (Filename.concat dir (fp_new ^ ".sol")));
  (* Re-adding an existing fingerprint replaces in place: no growth. *)
  let inst = random_prec 23 6 in
  Store.add store ~fingerprint:fp_new ~winner:"dc" (Spp_core.List_schedule.prec inst);
  Alcotest.(check int) "replace does not grow" 2 (Store.length store);
  Alcotest.check_raises "max_entries must be positive"
    (Invalid_argument "Store.create: max_entries must be >= 1") (fun () ->
      ignore (Store.create ~max_entries:0 ~dir ()))

(* A store capped at four, written from [n] distinct instances; returns
   the fingerprints in write order. *)
let fill_store store seeds =
  List.map
    (fun seed ->
      let inst = random_prec seed 5 in
      let fingerprint = Fingerprint.prec inst in
      Store.add store ~fingerprint ~winner:"ls" (Spp_core.List_schedule.prec inst);
      fingerprint)
    seeds

let sols dir =
  List.sort compare
    (List.filter (fun f -> Filename.check_suffix f ".sol") (Array.to_list (Sys.readdir dir)))

let test_store_age_index () =
  let dir = temp_store_dir () in
  let store = Store.create ~max_entries:4 ~dir () in
  let fps = fill_store store (List.init 20 (fun i -> 500 + i)) in
  let newest = List.filteri (fun i _ -> i >= 16) fps in
  Alcotest.(check (list string)) "20 writes leave the 4 newest"
    (List.sort compare (List.map (fun fp -> fp ^ ".sol") newest))
    (sols dir);
  Alcotest.(check int) "each deletion counted once" 16 (Store.prunes store);
  (* A rewrite moves an entry to the young end: three more writes prune
     the three entries written after it, not it. *)
  let rewritten = List.hd newest in
  let inst = random_prec 516 5 in
  Alcotest.(check string) "same instance" rewritten (Fingerprint.prec inst);
  Store.add store ~fingerprint:rewritten ~winner:"dc" (Spp_core.List_schedule.prec inst);
  let later = fill_store store [ 600; 601; 602 ] in
  Alcotest.(check (list string)) "the rewritten entry survives as the newest before them"
    (List.sort compare (List.map (fun fp -> fp ^ ".sol") (rewritten :: later)))
    (sols dir);
  Alcotest.(check int) "three more deletions" 19 (Store.prunes store);
  (* Another process's entry, older than everything: the next directory
     listing, at most four writes past the cap away, prunes it. *)
  let foreign = Filename.concat dir "foreign.sol" in
  Out_channel.with_open_text foreign (fun oc -> Out_channel.output_string oc "winner ls\n");
  (* The epoch's first second: [Unix.utimes] reads 0.0 as "now". *)
  Unix.utimes foreign 1.0 1.0;
  let rec write_until_gone k =
    if Sys.file_exists foreign && k < 4 then begin
      ignore (fill_store store [ 700 + k ]);
      write_until_gone (k + 1)
    end
    else k
  in
  let writes = write_until_gone 0 in
  Alcotest.(check bool) (Printf.sprintf "foreign entry gone after %d writes" writes) false
    (Sys.file_exists foreign);
  Alcotest.(check int) "still at the cap" 4 (List.length (sols dir));
  Alcotest.(check int) "the foreign deletion counted once" (19 + writes + 1) (Store.prunes store)

(* ------------------------------------------------------------------ *)
(* Engine *)

let test_engine_cache_bit_identical () =
  let engine = Engine.create () in
  let parsed = Io.Prec (random_prec 11 16) in
  let a = Engine.solve engine parsed in
  let b = Engine.solve engine parsed in
  Alcotest.(check bool) "first computed" true (a.Engine.source = Engine.Computed);
  Alcotest.(check bool) "second from memory cache" true (b.Engine.source = Engine.Memory_cache);
  Alcotest.(check string) "bit-identical packing"
    (Io.placement_to_string a.Engine.placement)
    (Io.placement_to_string b.Engine.placement);
  Alcotest.(check string) "same winner" a.Engine.winner b.Engine.winner;
  let tm = Engine.telemetry engine in
  Alcotest.(check int) "one cache hit" 1 (Telemetry.counter tm "cache.hit");
  Alcotest.(check int) "one cache miss" 1 (Telemetry.counter tm "cache.miss")

let test_engine_zero_budget_valid () =
  (* A zero budget trips every cancellation point immediately; the engine
     must still return a valid packing via its anytime incumbent. *)
  let parsed = Io.Prec (random_prec 13 9) in
  let engine = Engine.create () in
  (* Exact members poll the token, so with only those racing the
     pre-seeded incumbent list schedule must answer. *)
  let res = Engine.solve ~budget_ms:0.0 ~algos:[ "bb"; "order" ] engine parsed in
  check_valid parsed res.Engine.placement;
  Alcotest.(check string) "incumbent won" "ls(incumbent)" res.Engine.winner;
  Alcotest.(check bool) "members timed out" true
    (List.exists
       (fun (o : Engine.outcome) -> o.Engine.status = Engine.Timed_out)
       res.Engine.outcomes);
  Alcotest.(check bool) "reply is degraded" true res.Engine.degraded;
  Alcotest.(check bool) "gap is nonnegative" true
    (Q.compare res.Engine.gap Q.zero >= 0);
  (* Degraded answers stay out of the cache: the same instance solved
     again with a real budget recomputes and is not degraded. *)
  let res = Engine.solve ~budget_ms:2000.0 ~algos:[ "ls" ] engine parsed in
  check_valid parsed res.Engine.placement;
  Alcotest.(check bool) "roomier retry not degraded" false res.Engine.degraded;
  Alcotest.(check string) "retry recomputed, not replayed" "computed"
    (match res.Engine.source with
     | Engine.Computed -> "computed"
     | Engine.Memory_cache -> "cache.memory"
     | Engine.Disk_cache -> "cache.disk");
  (* Default portfolio under zero budget is also always valid. *)
  let res = Engine.solve ~budget_ms:0.0 engine parsed in
  check_valid parsed res.Engine.placement

let test_engine_zero_budget_release () =
  let parsed = Io.Release (random_release 5 8) in
  let engine = Engine.create () in
  let res = Engine.solve ~budget_ms:0.0 engine parsed in
  check_valid parsed res.Engine.placement

let test_engine_never_worse_than_members () =
  List.iter
    (fun seed ->
      let parsed = Io.Prec (random_prec seed 8) in
      let engine = Engine.create () in
      let res = Engine.solve engine parsed in
      check_valid parsed res.Engine.placement;
      List.iter
        (fun (spec : Portfolio.spec) ->
          let p = spec.Portfolio.run ~cancel:Cancel.never parsed in
          let h = Placement.height p in
          if Q.compare res.Engine.height h > 0 then
            Alcotest.failf "portfolio (%s) worse than member %s on seed %d"
              (Q.to_string res.Engine.height) spec.Portfolio.name seed)
        (Portfolio.defaults parsed))
    [ 1; 2; 3; 4; 5 ]

let test_engine_explicit_algos () =
  let parsed = Io.Prec (random_prec 21 12) in
  let engine = Engine.create () in
  (* "aptas" does not apply to a precedence instance: reported as skipped,
     not raced; "dc" still wins. *)
  let res = Engine.solve ~algos:[ "dc"; "aptas" ] engine parsed in
  Alcotest.(check string) "dc wins" "dc" res.Engine.winner;
  Alcotest.(check bool) "aptas skipped" true
    (List.exists
       (fun (o : Engine.outcome) ->
         o.Engine.solver = "aptas"
         && match o.Engine.status with Engine.Skipped _ -> true | _ -> false)
       res.Engine.outcomes);
  (* A fresh instance, so the lookup cannot be short-circuited by a cache
     hit before the algorithm list is validated. *)
  let fresh = Io.Prec (random_prec 22 12) in
  Alcotest.check_raises "unknown algo rejected"
    (Invalid_argument
       "unknown algorithm \"nope\" (known: dc, f, pff, wave, bb, order, aptas, shelf, ls)")
    (fun () -> ignore (Engine.solve ~algos:[ "nope" ] engine fresh))

let test_engine_disk_store () =
  let dir = temp_store_dir () in
  let parsed = Io.Prec (random_prec 31 10) in
  let first = Engine.create ~store_dir:dir () in
  let a = Engine.solve first parsed in
  (* A fresh engine (fresh memory cache) sharing the directory hits disk. *)
  let second = Engine.create ~store_dir:dir () in
  let b = Engine.solve second parsed in
  Alcotest.(check bool) "disk hit" true (b.Engine.source = Engine.Disk_cache);
  Alcotest.(check string) "identical packing across processes"
    (Io.placement_to_string a.Engine.placement)
    (Io.placement_to_string b.Engine.placement);
  Alcotest.(check int) "disk hit counter" 1
    (Telemetry.counter (Engine.telemetry second) "cache.hit.disk")

(* The byte path keeps nothing per request: answering a repeat 20 000
   times must leave the live heap where it was. *)
let test_engine_byte_path_retains_nothing () =
  let engine = Engine.create () in
  let text = Io.prec_to_string (random_prec 41 10) in
  ignore (Engine.solve ~text engine (Io.parse_string text));
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let before = live () in
  for _ = 1 to 20_000 do
    match Engine.find_text engine text with
    | Some (r, _) when r.Engine.source = Engine.Memory_cache -> ()
    | Some _ | None -> Alcotest.fail "repeat missed the byte path"
  done;
  let grown = live () - before in
  Alcotest.(check bool) (Printf.sprintf "live words grew by %d, under 50 000" grown) true
    (grown < 50_000);
  Alcotest.(check int) "every hit counted" 20_000 (Engine.cache_stats engine).Lru.hits

(* The parse path records a [solve] event per request; an engine whose
   log keeps no events must not grow with the number of requests. *)
let test_engine_events_off_retains_nothing () =
  let engine = Engine.create ~telemetry:(Telemetry.create ~events:false ()) () in
  let parsed = Io.Prec (random_prec 41 10) in
  ignore (Engine.solve engine parsed);
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let before = live () in
  for _ = 1 to 20_000 do
    if (Engine.solve engine parsed).Engine.source <> Engine.Memory_cache then
      Alcotest.fail "repeat missed the memory cache"
  done;
  let grown = live () - before in
  Alcotest.(check bool) (Printf.sprintf "live words grew by %d, under 50 000" grown) true
    (grown < 50_000);
  Alcotest.(check int) "every hit counted" 20_000
    (Telemetry.counter (Engine.telemetry engine) "cache.hit.memory")

let () =
  Alcotest.run "spp_engine"
    [
      ( "fingerprint",
        [
          Alcotest.test_case "order independent" `Quick test_fingerprint_order_independent;
          Alcotest.test_case "distinguishes instances" `Quick test_fingerprint_distinguishes;
          Alcotest.test_case "variant tagged" `Quick test_fingerprint_variant_tagged;
        ] );
      ( "lru",
        [
          Alcotest.test_case "hit/miss/evict" `Quick test_lru_hit_miss_evict;
          Alcotest.test_case "replace" `Quick test_lru_replace;
          Alcotest.test_case "find_hit counts hits only" `Quick test_lru_find_hit;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "counters and events" `Quick test_telemetry_counters_events;
          Alcotest.test_case "events off" `Quick test_telemetry_events_off;
        ] );
      ( "cancel",
        [
          Alcotest.test_case "tokens" `Quick test_cancel_tokens;
          Alcotest.test_case "stops exact search" `Quick test_cancel_stops_exact_search;
        ] );
      ( "store",
        [
          Alcotest.test_case "roundtrip" `Quick test_store_roundtrip;
          Alcotest.test_case "bounded with mtime pruning" `Quick test_store_bounded;
          Alcotest.test_case "age index: newest kept, foreign entries pruned" `Quick
            test_store_age_index;
        ] );
      ( "engine",
        [
          Alcotest.test_case "cache returns bit-identical packing" `Quick
            test_engine_cache_bit_identical;
          Alcotest.test_case "zero budget still valid (prec)" `Quick test_engine_zero_budget_valid;
          Alcotest.test_case "zero budget still valid (release)" `Quick
            test_engine_zero_budget_release;
          Alcotest.test_case "never worse than members" `Quick
            test_engine_never_worse_than_members;
          Alcotest.test_case "explicit algos" `Quick test_engine_explicit_algos;
          Alcotest.test_case "disk store" `Quick test_engine_disk_store;
          Alcotest.test_case "byte path retains nothing" `Quick
            test_engine_byte_path_retains_nothing;
          Alcotest.test_case "events off retains nothing" `Quick
            test_engine_events_off_retains_nothing;
        ] );
    ]
