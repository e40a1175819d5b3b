(* Tests for Spp_util: PRNG determinism and distribution sanity, heap
   ordering laws, statistics, and table rendering. *)

module Prng = Spp_util.Prng
module Cancel = Spp_util.Cancel
module Heap = Spp_util.Heap
module Stats = Spp_util.Stats
module Table = Spp_util.Table

(* ------------------------------------------------------------------ *)
(* PRNG *)

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if not (Int64.equal (Prng.bits64 a) (Prng.bits64 b)) then differs := true
  done;
  Alcotest.(check bool) "streams differ" true !differs

let test_prng_int_bounds () =
  let t = Prng.create 7 in
  for _ = 1 to 10_000 do
    let v = Prng.int t 17 in
    if v < 0 || v >= 17 then Alcotest.fail "out of range"
  done;
  Alcotest.check_raises "bad bound" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int t 0))

let test_prng_int_in () =
  let t = Prng.create 9 in
  let seen = Array.make 5 false in
  for _ = 1 to 1000 do
    let v = Prng.int_in t 3 7 in
    if v < 3 || v > 7 then Alcotest.fail "out of range";
    seen.(v - 3) <- true
  done;
  Alcotest.(check bool) "all values hit" true (Array.for_all Fun.id seen)

let test_prng_uniformity () =
  (* Sanity: 10 buckets over 100k draws each within 20% of expectation. *)
  let t = Prng.create 1234 in
  let buckets = Array.make 10 0 in
  let draws = 100_000 in
  for _ = 1 to draws do
    let v = Prng.int t 10 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iter
    (fun c ->
      let expected = draws / 10 in
      if abs (c - expected) > expected / 5 then Alcotest.fail "bucket far from uniform")
    buckets

let test_prng_float_range () =
  let t = Prng.create 5 in
  for _ = 1 to 10_000 do
    let v = Prng.float t 2.5 in
    if v < 0.0 || v >= 2.5 then Alcotest.fail "float out of range"
  done

let test_prng_exponential_mean () =
  let t = Prng.create 77 in
  let n = 50_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Prng.exponential t ~rate:2.0
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check (float 0.02)) "mean ~ 1/rate" 0.5 mean

let test_prng_shuffle_permutes () =
  let t = Prng.create 3 in
  let arr = Array.init 50 Fun.id in
  Prng.shuffle t arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 Fun.id) sorted

let test_prng_split_independent () =
  let t = Prng.create 11 in
  let child = Prng.split t in
  (* Drawing from the child must not perturb the parent's future stream. *)
  let t2 = Prng.create 11 in
  let _child2 = Prng.split t2 in
  ignore (Prng.bits64 child);
  Alcotest.(check int64) "parent unaffected by child draws" (Prng.bits64 t2) (Prng.bits64 t)

let test_prng_split_deterministic () =
  (* The split discipline itself must be reproducible: the same seed and
     the same sequence of splits yields the same child streams, and splits
     consume exactly one parent draw (the contract Spp_check's per-case
     seeding relies on). *)
  let stream t = List.init 8 (fun _ -> Prng.bits64 t) in
  let a = Prng.create 42 and b = Prng.create 42 in
  Alcotest.(check (list int64)) "first children agree" (stream (Prng.split a))
    (stream (Prng.split b));
  Alcotest.(check (list int64)) "second children agree" (stream (Prng.split a))
    (stream (Prng.split b));
  Alcotest.(check (list int64)) "parents still in lockstep" (stream a) (stream b);
  (* One draw per split: split-then-draw equals draw-skip-then-draw. *)
  let c = Prng.create 17 and d = Prng.create 17 in
  ignore (Prng.split c);
  ignore (Prng.bits64 d);
  Alcotest.(check int64) "split consumes exactly one draw" (Prng.bits64 d) (Prng.bits64 c)

let test_prng_copy_replays () =
  let t = Prng.create 23 in
  ignore (Prng.bits64 t);
  let snap = Prng.copy t in
  let from_orig = List.init 16 (fun _ -> Prng.bits64 t) in
  let from_copy = List.init 16 (fun _ -> Prng.bits64 snap) in
  Alcotest.(check (list int64)) "copy replays the original stream" from_orig from_copy;
  (* And the copy is detached: drawing from it must not advance [t]. *)
  let t2 = Prng.create 23 in
  ignore (Prng.bits64 t2);
  let snap2 = Prng.copy t2 in
  ignore (Prng.bits64 snap2);
  Alcotest.(check int64) "original unaffected by copy draws"
    (List.hd from_orig) (Prng.bits64 t2)

(* ------------------------------------------------------------------ *)
(* Heap *)

let test_heap_basic () =
  let h = Heap.create ~cmp:compare in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  List.iter (Heap.push h) [ 5; 3; 8; 1; 9; 2 ];
  Alcotest.(check int) "length" 6 (Heap.length h);
  Alcotest.(check (option int)) "peek min" (Some 1) (Heap.peek h);
  Alcotest.(check (list int)) "drain sorted" [ 1; 2; 3; 5; 8; 9 ]
    (List.init 6 (fun _ -> Heap.pop_exn h));
  Alcotest.(check bool) "drained" true (Heap.is_empty h)

let test_heap_pop_empty () =
  let h = Heap.create ~cmp:compare in
  Alcotest.(check (option int)) "pop empty" None (Heap.pop h);
  Alcotest.check_raises "pop_exn empty" Not_found (fun () -> ignore (Heap.pop_exn h))

let test_heap_of_list () =
  let h = Heap.of_list ~cmp:compare [ 4; 2; 7; 1 ] in
  Alcotest.(check (list int)) "sorted" [ 1; 2; 4; 7 ] (Heap.to_sorted_list h);
  Alcotest.(check int) "to_sorted_list non-destructive" 4 (Heap.length h)

let test_heap_custom_order () =
  let h = Heap.create ~cmp:(fun a b -> compare b a) in
  List.iter (Heap.push h) [ 5; 3; 8 ];
  Alcotest.(check (option int)) "max-heap" (Some 8) (Heap.pop h)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap drains in sorted order" ~count:300
    (QCheck.list QCheck.small_int) (fun xs ->
      let h = Heap.of_list ~cmp:compare xs in
      Heap.to_sorted_list h = List.sort compare xs)

let prop_heap_push_pop_min =
  QCheck.Test.make ~name:"pop always yields current minimum" ~count:200
    (QCheck.list QCheck.small_int) (fun xs ->
      QCheck.assume (xs <> []);
      let h = Heap.create ~cmp:compare in
      List.iter (Heap.push h) xs;
      match Heap.pop h with
      | Some m -> m = List.fold_left min max_int xs
      | None -> false)

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_stats_mean_stddev () =
  Alcotest.(check (float 1e-9)) "mean" 3.0 (Stats.mean [ 1.0; 2.0; 3.0; 4.0; 5.0 ]);
  Alcotest.(check (float 1e-9)) "stddev" (sqrt 2.0) (Stats.stddev [ 1.0; 2.0; 3.0; 4.0; 5.0 ]);
  Alcotest.check_raises "empty mean" (Invalid_argument "Stats.mean: empty sample") (fun () ->
      ignore (Stats.mean []))

let test_stats_median_quantile () =
  Alcotest.(check (float 1e-9)) "odd median" 3.0 (Stats.median [ 5.0; 1.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "even median" 2.5 (Stats.median [ 4.0; 1.0; 2.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "q0" 1.0 (Stats.quantile 0.0 [ 3.0; 1.0; 2.0 ]);
  Alcotest.(check (float 1e-9)) "q1" 3.0 (Stats.quantile 1.0 [ 3.0; 1.0; 2.0 ])

let test_stats_percentiles () =
  let xs = [ 5.0; 1.0; 4.0; 2.0; 3.0 ] in
  Alcotest.(check (float 1e-9)) "p0 is min" 1.0 (Stats.percentile 0.0 xs);
  Alcotest.(check (float 1e-9)) "p100 is max" 5.0 (Stats.percentile 100.0 xs);
  Alcotest.(check (float 1e-9)) "p50 is median" 3.0 (Stats.percentile 50.0 xs);
  (* Rank interpolation, not nearest-rank: p90 over 5 samples sits 60% of
     the way from the 4th to the 5th order statistic. *)
  Alcotest.(check (float 1e-9)) "p90 interpolates" 4.6 (Stats.percentile 90.0 xs);
  Alcotest.(check (float 1e-9)) "singleton" 7.0 (Stats.percentile 99.0 [ 7.0 ]);
  Alcotest.(check (list (float 1e-9)))
    "percentiles = map percentile"
    (List.map (fun p -> Stats.percentile p xs) [ 50.0; 90.0; 95.0; 99.0 ])
    (Stats.percentiles [ 50.0; 90.0; 95.0; 99.0 ] xs)

let test_stats_geometric_mean () =
  Alcotest.(check (float 1e-9)) "gm" 2.0 (Stats.geometric_mean [ 1.0; 2.0; 4.0 ]);
  Alcotest.check_raises "nonpositive" (Invalid_argument "Stats.geometric_mean: nonpositive sample")
    (fun () -> ignore (Stats.geometric_mean [ 1.0; 0.0 ]))

let test_stats_linear_fit () =
  let slope, intercept = Stats.linear_fit [ (0.0, 1.0); (1.0, 3.0); (2.0, 5.0) ] in
  Alcotest.(check (float 1e-9)) "slope" 2.0 slope;
  Alcotest.(check (float 1e-9)) "intercept" 1.0 intercept

let test_stats_min_max () =
  let lo, hi = Stats.min_max [ 3.0; -1.0; 7.0 ] in
  Alcotest.(check (float 1e-9)) "min" (-1.0) lo;
  Alcotest.(check (float 1e-9)) "max" 7.0 hi

(* ------------------------------------------------------------------ *)
(* Parallel *)

module Parallel = Spp_util.Parallel

let test_parallel_matches_sequential () =
  let xs = List.init 100 Fun.id in
  let f x = (x * x) + 1 in
  Alcotest.(check (list int)) "order preserved" (List.map f xs) (Parallel.map ~workers:4 f xs);
  Alcotest.(check (list int)) "single worker" (List.map f xs) (Parallel.map ~workers:1 f xs);
  Alcotest.(check (list int)) "empty" [] (Parallel.map f ([] : int list));
  Alcotest.(check (list int)) "singleton" [ 2 ] (Parallel.map f [ 1 ])

let test_parallel_large_matches_list_map () =
  (* 1000 items: order preservation against List.map at several widths. *)
  let xs = List.init 1000 (fun i -> i - 500) in
  let f x = (x * 31) lxor 7 in
  let expected = List.map f xs in
  List.iter
    (fun workers ->
      Alcotest.(check (list int))
        (Printf.sprintf "1k items, %d workers" workers)
        expected
        (Parallel.map ~workers f xs))
    [ 1; 2; 8 ]

let test_parallel_propagates_exception () =
  Alcotest.check_raises "worker exception surfaces" (Failure "boom") (fun () ->
      ignore (Parallel.map ~workers:4 (fun x -> if x = 37 then failwith "boom" else x)
                (List.init 100 Fun.id)));
  Alcotest.check_raises "exception with workers:1" (Failure "boom") (fun () ->
      ignore (Parallel.map ~workers:1 (fun x -> if x = 3 then failwith "boom" else x)
                (List.init 10 Fun.id)))

let test_parallel_single_worker_sequential () =
  (* workers:1 must fall back to sequential evaluation in the calling
     domain: side effects happen in input order, and no other domain runs
     the function. *)
  let order = ref [] in
  let self = Domain.self () in
  let xs = List.init 50 Fun.id in
  let res =
    Parallel.map ~workers:1
      (fun x ->
        order := x :: !order;
        Alcotest.(check bool) "runs in calling domain" true (Domain.self () = self);
        x + 1)
      xs
  in
  Alcotest.(check (list int)) "results" (List.map succ xs) res;
  Alcotest.(check (list int)) "side effects in input order" xs (List.rev !order)

let test_parallel_workers_env_override () =
  (* SPP_WORKERS overrides both core detection and the cap of 8; malformed
     or non-positive values fall back to the default. putenv cannot unset,
     so the default case is exercised via values that must be ignored. *)
  let default = ref 0 in
  Unix.putenv "SPP_WORKERS" "";
  default := Parallel.available_workers ();
  Alcotest.(check bool) "default is positive" true (!default >= 1);
  Unix.putenv "SPP_WORKERS" "3";
  Alcotest.(check int) "override honored" 3 (Parallel.available_workers ());
  Unix.putenv "SPP_WORKERS" "12";
  Alcotest.(check int) "override beats the cap of 8" 12 (Parallel.available_workers ());
  Unix.putenv "SPP_WORKERS" " 5 ";
  Alcotest.(check int) "whitespace tolerated" 5 (Parallel.available_workers ());
  Unix.putenv "SPP_WORKERS" "0";
  Alcotest.(check int) "non-positive ignored" !default (Parallel.available_workers ());
  Unix.putenv "SPP_WORKERS" "lots";
  Alcotest.(check int) "malformed ignored" !default (Parallel.available_workers ());
  Unix.putenv "SPP_WORKERS" ""

let test_parallel_parse_workers () =
  let ok s n =
    Alcotest.(check bool) (Printf.sprintf "parse %S" s) true (Parallel.parse_workers s = Ok n)
  in
  let err s =
    match Parallel.parse_workers s with
    | Error msg ->
      Alcotest.(check bool) (Printf.sprintf "error for %S names it" s) true (msg <> "")
    | Ok n -> Alcotest.failf "parse_workers %S unexpectedly accepted as %d" s n
  in
  ok "1" 1;
  ok "8" 8;
  ok "12" 12;
  ok " 5 " 5;
  ok "\t3\n" 3;
  err "";
  err " ";
  err "0";
  err "-2";
  err "lots";
  err "4 cores";
  err "3.5"

let test_parallel_real_workload () =
  (* Actual domain-parallel packing: results identical to sequential. *)
  let seeds = List.init 12 Fun.id in
  let pack seed =
    let rng = Prng.create seed in
    let w = 1 + (seed mod 8) in
    ignore rng;
    w * 2
  in
  Alcotest.(check (list int)) "parallel = sequential" (List.map pack seeds)
    (Parallel.map ~workers:3 pack seeds)

(* ------------------------------------------------------------------ *)
(* Clock *)

module Clock = Spp_util.Clock

let test_clock_monotonic () =
  let prev = ref (Clock.now_ms ()) in
  for _ = 1 to 1000 do
    let t = Clock.now_ms () in
    if t < !prev then Alcotest.fail "clock went backwards";
    prev := t
  done

let test_clock_elapsed_nonnegative () =
  let t0 = Clock.now_ms () in
  Alcotest.(check bool) "elapsed >= 0" true (Clock.elapsed_ms t0 >= 0.0);
  (* Even against a reference in the future. *)
  Alcotest.(check (float 0.0)) "clamped at zero" 0.0 (Clock.elapsed_ms (t0 +. 1e9))

let with_frozen_clock f =
  Clock.freeze ();
  Fun.protect ~finally:Clock.thaw f

let test_clock_virtual () =
  with_frozen_clock (fun () ->
      Alcotest.(check bool) "frozen" true (Clock.frozen ());
      let t0 = Clock.now_ms () in
      Alcotest.(check (float 0.0)) "no drift while frozen" t0 (Clock.now_ms ());
      Alcotest.(check (float 0.0)) "advance returns new now" (t0 +. 250.0) (Clock.advance 250.0);
      Alcotest.(check (float 0.0)) "elapsed is virtual" 250.0 (Clock.elapsed_ms t0);
      Alcotest.(check (float 0.0)) "zero advance ok" (t0 +. 250.0) (Clock.advance 0.0));
  Alcotest.(check bool) "thawed" false (Clock.frozen ());
  (* The monotone clamp survives the thaw: the wall may lag the virtual
     time we advanced to, but now_ms never goes backwards. *)
  let prev = ref (Clock.now_ms ()) in
  for _ = 1 to 100 do
    let t = Clock.now_ms () in
    if t < !prev then Alcotest.fail "clock went backwards after thaw";
    prev := t
  done

let test_clock_advance_guards () =
  Alcotest.check_raises "advance needs freeze"
    (Invalid_argument "Clock.advance: clock is not frozen") (fun () ->
      ignore (Clock.advance 1.0));
  with_frozen_clock (fun () ->
      Alcotest.check_raises "negative advance"
        (Invalid_argument "Clock.advance: negative step") (fun () ->
          ignore (Clock.advance (-1.0))))

(* ------------------------------------------------------------------ *)
(* Cancel: the deadline boundary cases live here; behavioural tests of
   tokens inside solvers are in test_engine. *)

let test_cancel_deadline_now () =
  (* A zero (or negative) budget must trip immediately — the engine
     builds such tokens when a request arrives with its budget already
     spent, and solvers must hit the fallback rather than start work. *)
  List.iter
    (fun ms ->
      let t = Cancel.with_deadline_ms ms in
      Alcotest.(check bool)
        (Printf.sprintf "deadline %g tripped at birth" ms)
        true (Cancel.cancelled t);
      Alcotest.check_raises "check raises" Cancel.Cancelled (fun () -> Cancel.check t);
      Alcotest.(check (option (float 0.0))) "no budget left" (Some 0.0) (Cancel.remaining_ms t))
    [ 0.0; -1.0; -1e9 ];
  (* And stays tripped: cancel on an already-expired token is a no-op. *)
  let t = Cancel.with_deadline_ms 0.0 in
  Cancel.cancel t;
  Alcotest.(check bool) "still tripped" true (Cancel.cancelled t)

let test_cancel_deadline_virtual () =
  (* The whole point of the virtual clock: deadline semantics tested
     without a single sleep. *)
  with_frozen_clock (fun () ->
      let t = Cancel.with_deadline_ms 100.0 in
      Alcotest.(check bool) "fresh token live" false (Cancel.cancelled t);
      ignore (Clock.advance 50.0);
      Alcotest.(check bool) "alive at half budget" false (Cancel.cancelled t);
      Alcotest.(check (option (float 0.0))) "half budget left" (Some 50.0)
        (Cancel.remaining_ms t);
      ignore (Clock.advance 60.0);
      Alcotest.(check bool) "tripped past deadline" true (Cancel.cancelled t);
      Alcotest.(check (option (float 0.0))) "no budget left" (Some 0.0) (Cancel.remaining_ms t))

(* [check] reads the clock only at a token's first poll and every 64th
   after it; these pin the bound and the latch on a frozen clock. *)
let raises t = match Cancel.check t with () -> false | exception Cancel.Cancelled -> true

let test_cancel_poll_expired_at_birth () =
  with_frozen_clock (fun () ->
      let t = Cancel.with_deadline_ms 0.0 in
      Alcotest.(check bool) "first check raises" true (raises t);
      Alcotest.(check int) "one poll" 1 (Cancel.polls t))

let test_cancel_poll_mid_run () =
  (* The deadline passes after [before] polls, for every phase of the
     64-poll stride: no poll raises before it, one of the next 64 does. *)
  with_frozen_clock (fun () ->
      for before = 0 to 130 do
        let t = Cancel.with_deadline_ms 10.0 in
        for _ = 1 to before do
          if raises t then Alcotest.failf "raised before the deadline (after %d polls)" before
        done;
        ignore (Clock.advance 9.5);
        for _ = 1 to 200 do
          if raises t then Alcotest.failf "raised 0.5 ms early (after %d polls)" before
        done;
        ignore (Clock.advance 0.5);
        let late = ref 1 in
        while !late <= 64 && not (raises t) do
          incr late
        done;
        if !late > 64 then
          Alcotest.failf "raised %d polls after the deadline (after %d polls)" !late before
      done)

let test_cancel_poll_latch () =
  (* Once a poll has seen the deadline pass, every later poll raises,
     including the 63 in each stride that do not read the clock. *)
  with_frozen_clock (fun () ->
      let t = Cancel.with_deadline_ms 10.0 in
      Alcotest.(check bool) "live at the first poll" false (raises t);
      ignore (Clock.advance 20.0);
      let polls = ref 0 in
      while !polls < 64 && not (raises t) do
        incr polls
      done;
      for i = 1 to 200 do
        if not (raises t) then Alcotest.failf "poll %d after the latch did not raise" i
      done;
      Alcotest.(check bool) "cancelled" true (Cancel.cancelled t))

(* ------------------------------------------------------------------ *)
(* Deadline: propagated-budget arithmetic, entirely under the virtual
   clock — not one sleep. *)

module Deadline = Spp_util.Deadline

let test_deadline_pin_and_spend () =
  with_frozen_clock (fun () ->
      let d = Deadline.started 100.0 in
      Alcotest.(check (float 1e-9)) "full budget at receipt" 100.0 (Deadline.remaining_ms d);
      Alcotest.(check bool) "not expired" false (Deadline.expired d);
      ignore (Clock.advance 40.0);
      Alcotest.(check (float 1e-9)) "hop time subtracted" 60.0 (Deadline.remaining_ms d);
      (* The next hop receives only what is left as measured here. *)
      Alcotest.(check (float 1e-9)) "forward = remaining" 60.0 (Deadline.forward_ms d);
      ignore (Clock.advance 60.0);
      Alcotest.(check (float 0.0)) "exhausted" 0.0 (Deadline.remaining_ms d);
      Alcotest.(check bool) "expired exactly at zero" true (Deadline.expired d);
      ignore (Clock.advance 1000.0);
      Alcotest.(check (float 0.0)) "never negative" 0.0 (Deadline.remaining_ms d))

let test_deadline_floor () =
  with_frozen_clock (fun () ->
      let d = Deadline.started 100.0 in
      (* The wont-make-it test: below the floor the request cannot finish
         in time even though the deadline itself has not passed. *)
      Alcotest.(check bool) "above floor" false (Deadline.expired ~floor_ms:50.0 d);
      ignore (Clock.advance 60.0);
      Alcotest.(check bool) "below floor" true (Deadline.expired ~floor_ms:50.0 d);
      Alcotest.(check bool) "plain deadline still live" false (Deadline.expired d);
      (* Exactly at the floor is still admissible. *)
      let d' = Deadline.started 50.0 in
      Alcotest.(check bool) "at the floor" false (Deadline.expired ~floor_ms:50.0 d'))

let test_deadline_of_request () =
  Alcotest.(check bool) "no wire field, no deadline" true
    (Deadline.of_request None = None);
  with_frozen_clock (fun () ->
      match Deadline.of_request (Some 75.0) with
      | None -> Alcotest.fail "Some budget must pin a deadline"
      | Some d ->
        Alcotest.(check (float 1e-9)) "pinned at receipt" 75.0 (Deadline.remaining_ms d);
        (* A hop that re-pins the forwarded budget observes one hop's
           elapsed time subtracted, not two. *)
        ignore (Clock.advance 25.0);
        let next = Deadline.started (Deadline.forward_ms d) in
        Alcotest.(check (float 1e-9)) "second hop sees 50" 50.0
          (Deadline.remaining_ms next);
        ignore (Clock.advance 50.0);
        Alcotest.(check bool) "both hops agree on expiry" true
          (Deadline.expired d && Deadline.expired next));
  (* A budget already spent (or nonsense-negative) arrives expired. *)
  List.iter
    (fun ms ->
      match Deadline.of_request (Some ms) with
      | None -> Alcotest.fail "expired is still a deadline"
      | Some d -> Alcotest.(check bool) "born expired" true (Deadline.expired d))
    [ 0.0; -5.0 ]

let test_deadline_token () =
  with_frozen_clock (fun () ->
      let d = Deadline.started 80.0 in
      ignore (Clock.advance 30.0);
      (* The token caps solver work by whatever remains at its creation. *)
      let t = Deadline.token d in
      Alcotest.(check bool) "token live within budget" false (Cancel.cancelled t);
      ignore (Clock.advance 49.0);
      Alcotest.(check bool) "still live at 1 ms left" false (Cancel.cancelled t);
      ignore (Clock.advance 2.0);
      Alcotest.(check bool) "token trips with the deadline" true (Cancel.cancelled t))

(* ------------------------------------------------------------------ *)
(* Table *)

let test_table_render () =
  let t = Table.create ~columns:[ "n"; "height"; "ratio" ] in
  Table.add_row t [ "16"; "3.5"; "1.2" ];
  Table.add_row t [ "256"; "10.25" ];
  let out = Table.render t in
  Alcotest.(check bool) "header present" true
    (String.length out > 0 && String.sub out 0 1 = "n");
  let lines = String.split_on_char '\n' (String.trim out) in
  Alcotest.(check int) "line count" 4 (List.length lines)

let test_table_too_many_cells () =
  let t = Table.create ~columns:[ "a" ] in
  Alcotest.check_raises "overflow row" (Invalid_argument "Table.add_row: more cells than columns")
    (fun () -> Table.add_row t [ "1"; "2" ])

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "spp_util"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
          Alcotest.test_case "int_in hits range" `Quick test_prng_int_in;
          Alcotest.test_case "uniformity" `Quick test_prng_uniformity;
          Alcotest.test_case "float range" `Quick test_prng_float_range;
          Alcotest.test_case "exponential mean" `Quick test_prng_exponential_mean;
          Alcotest.test_case "shuffle permutes" `Quick test_prng_shuffle_permutes;
          Alcotest.test_case "split independence" `Quick test_prng_split_independent;
          Alcotest.test_case "split determinism" `Quick test_prng_split_deterministic;
          Alcotest.test_case "copy replays stream" `Quick test_prng_copy_replays;
        ] );
      ( "heap",
        Alcotest.test_case "basic" `Quick test_heap_basic
        :: Alcotest.test_case "pop empty" `Quick test_heap_pop_empty
        :: Alcotest.test_case "of_list" `Quick test_heap_of_list
        :: Alcotest.test_case "custom order" `Quick test_heap_custom_order
        :: q [ prop_heap_sorts; prop_heap_push_pop_min ] );
      ( "stats",
        [
          Alcotest.test_case "mean/stddev" `Quick test_stats_mean_stddev;
          Alcotest.test_case "median/quantile" `Quick test_stats_median_quantile;
          Alcotest.test_case "percentiles" `Quick test_stats_percentiles;
          Alcotest.test_case "geometric mean" `Quick test_stats_geometric_mean;
          Alcotest.test_case "linear fit" `Quick test_stats_linear_fit;
          Alcotest.test_case "min/max" `Quick test_stats_min_max;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "matches sequential" `Quick test_parallel_matches_sequential;
          Alcotest.test_case "1k items vs List.map" `Quick test_parallel_large_matches_list_map;
          Alcotest.test_case "exception propagation" `Quick test_parallel_propagates_exception;
          Alcotest.test_case "workers:1 sequential fallback" `Quick
            test_parallel_single_worker_sequential;
          Alcotest.test_case "SPP_WORKERS override" `Quick test_parallel_workers_env_override;
          Alcotest.test_case "parse_workers" `Quick test_parallel_parse_workers;
          Alcotest.test_case "real workload" `Quick test_parallel_real_workload;
        ] );
      ( "clock",
        [
          Alcotest.test_case "monotonic" `Quick test_clock_monotonic;
          Alcotest.test_case "elapsed nonnegative" `Quick test_clock_elapsed_nonnegative;
          Alcotest.test_case "virtual freeze/advance/thaw" `Quick test_clock_virtual;
          Alcotest.test_case "advance guards" `Quick test_clock_advance_guards;
        ] );
      ( "cancel",
        [ Alcotest.test_case "deadline already passed" `Quick test_cancel_deadline_now;
          Alcotest.test_case "deadline under virtual clock" `Quick test_cancel_deadline_virtual;
          Alcotest.test_case "poll: expired at birth" `Quick test_cancel_poll_expired_at_birth;
          Alcotest.test_case "poll: deadline within 64 polls" `Quick test_cancel_poll_mid_run;
          Alcotest.test_case "poll: latched" `Quick test_cancel_poll_latch ] );
      ( "deadline",
        [ Alcotest.test_case "pin and spend per hop" `Quick test_deadline_pin_and_spend;
          Alcotest.test_case "wont-make-it floor" `Quick test_deadline_floor;
          Alcotest.test_case "wire budget round-trip" `Quick test_deadline_of_request;
          Alcotest.test_case "cancel token" `Quick test_deadline_token ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "too many cells" `Quick test_table_too_many_cells;
        ] );
    ]
