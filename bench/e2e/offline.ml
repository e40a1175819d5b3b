(* offline_batch: the paper's algorithms in-process on one domain, each
   job followed by its independent validator, round after round until
   the run's time is spent. *)

module Q = Spp_num.Rat
module Json = Spp_server.Json
module LB = Spp_core.Lower_bounds
module Validate = Spp_core.Validate
module Profile = Spp_obs.Profile
module Trace = Spp_obs.Trace

let rounds_generated = 24

(* A round's time limit for [slo_attainment]: rounds take about 0.9 s on
   a 2-core machine, so every round meets it unless the batch slows down
   by half. *)
let round_limit_ms = 2000.0

type job_result = {
  kind : string;
  algo_ms : float;
  check_ms : float;
  height : Q.t;
  quality : float;
  ok : bool;
  words : float;
  prof : Profile.snapshot;
  tree : Spans.node option;
}

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, (Unix.gettimeofday () -. t0) *. 1000.0)

(* Run one job and its validator, with a [job] span over an [algo] and a
   [validate] span when traced. *)
let run_job ~trace (job : Gen.job) =
  let kind = Gen.job_kind job in
  let tr = if trace then Some (Trace.create ~name:("job:" ^ kind) ()) else None in
  let span name f =
    match tr with
    | None -> f ()
    | Some tr -> Trace.with_span tr ~parent:(Trace.root tr) name (fun _ -> f ())
  in
  Profile.reset ();
  let w0 = Gc.minor_words () in
  let (height, lb, check), algo_ms =
    time (fun () ->
        span "algo" (fun () ->
            match job with
            | Gen.Dc inst ->
              let p, _ = Spp_core.Dc.pack inst in
              (Spp_geom.Placement.height p, LB.prec inst, fun () -> Validate.check_prec inst p = [])
            | Gen.Uniform_f inst ->
              let p, _ = Spp_core.Uniform.next_fit_shelf inst in
              (Spp_geom.Placement.height p, LB.prec inst, fun () -> Validate.check_prec inst p = [])
            | Gen.Aptas inst ->
              let r =
                Spp_core.Aptas.solve ~solver:`Column_generation ~epsilon:(Q.of_ints 1 2) inst
              in
              let p = r.Spp_core.Aptas.placement in
              (r.Spp_core.Aptas.height, LB.release inst, fun () -> Validate.check_release inst p = [])
            | Gen.Sim (packer, repack_threshold, inst) ->
              let rep = Spp_sim.Sim.run ?repack_threshold ~packer inst in
              (rep.Spp_sim.Sim.makespan, LB.release inst, fun () -> Spp_sim.Sim.check inst rep = [])))
  in
  let ok, check_ms = time (fun () -> span "validate" check) in
  let words = Gc.minor_words () -. w0 in
  let prof = Profile.read () in
  let tree =
    Option.bind tr (fun tr ->
        Trace.close tr;
        Spans.of_trace tr)
  in
  { kind; algo_ms; check_ms; height; quality = Q.to_float (Q.div height lb); ok; words; prof; tree }

(* [setups] is how many times set-up (instance generation) is timed. *)
let run ~seed ~seconds ~trace ~setups =
  let gen () =
    let rounds, ms = time (fun () -> Array.init rounds_generated (Gen.offline_round seed)) in
    (rounds, ms /. 1000.0)
  in
  let rec setup k times =
    let rounds, dt = gen () in
    if k <= 1 then (rounds, dt :: times) else setup (k - 1) (dt :: times)
  in
  let rounds, setup_times = setup setups [] in
  let cpu0 = Sut.self_cpu_ms () in
  let t0 = Unix.gettimeofday () in
  let rec loop r acc round_ms =
    if r >= 1 && Unix.gettimeofday () -. t0 >= seconds then (r, acc, round_ms)
    else
      let results, ms = time (fun () -> List.map (run_job ~trace) rounds.(r mod rounds_generated)) in
      loop (r + 1) (List.rev_append results acc) (ms :: round_ms)
  in
  let nrounds, results, round_ms = loop 0 [] [] in
  let results = List.rev results in
  let cpu_ms = Sut.self_cpu_ms () -. cpu0 in
  let njobs = List.length results in
  let first_round = List.filteri (fun i _ -> i < List.length rounds.(0)) results in
  let of_kind k = List.filter (fun j -> j.kind = k) results in
  (* The batch's latency is a round's: twelve jobs, each with its
     validator, so a change to any one algorithm shows. *)
  let latency = round_ms in
  (* Each kind's rate is jobs per second of the time spent on that kind;
     the geometric mean makes a speed-up to any one kind visible. *)
  let rate k =
    let js = of_kind k in
    float_of_int (List.length js)
    /. (List.fold_left (fun a j -> a +. j.algo_ms +. j.check_ms) 0.0 js /. 1000.0)
  in
  let invalid = List.length (List.filter (fun j -> not j.ok) results) in
  let counts = { Outcome.zero with Outcome.ok = njobs - invalid; invalid } in
  let e2e =
    [ ("latency_p50_ms", Outcome.percentile 50.0 latency);
      ("latency_p95_ms", Outcome.percentile 95.0 latency);
      ("throughput_rps", Spp_util.Stats.geometric_mean (List.map rate (Array.to_list Gen.job_kinds)));
      ("slo_attainment",
        float_of_int (List.length (List.filter (fun l -> l <= round_limit_ms) latency))
        /. float_of_int nrounds);
      ("quality_ratio", Spp_util.Stats.geometric_mean (List.map (fun j -> j.quality) results));
      ("cpu_ms_per_op", cpu_ms /. float_of_int njobs); ("setup_s", Outcome.median setup_times);
      ("peak_rss_mb", Sut.self_peak_rss_mb ()) ]
  in
  let algo k = Outcome.median (List.map (fun j -> j.algo_ms) (of_kind k)) in
  let check ks = Outcome.median (List.concat_map (fun k -> List.map (fun j -> j.check_ms) (of_kind k)) ks) in
  (* Solver work over the first round: a pure function of the seed. *)
  let sum f = List.fold_left (fun a j -> a + f j.prof) 0 first_round in
  let work =
    [ ("simplex.pivots", sum (fun p -> p.Profile.pivots));
      ("colgen.columns", sum (fun p -> p.Profile.colgen_columns));
      ("colgen.rounds", sum (fun p -> p.Profile.colgen_rounds)) ]
  in
  let layer =
    [ ("latency_p99_ms", Outcome.percentile 99.0 latency);
      ("error_ratio", float_of_int invalid /. float_of_int njobs);
      ("dc.ms", algo "dc"); ("uniform_f.ms", algo "uniform_f"); ("aptas.ms", algo "aptas");
      ("sim.ms", algo "sim"); ("validate.prec_ms", check [ "dc"; "uniform_f" ]);
      ("validate.release_ms", check [ "aptas" ]); ("sim.check_ms", check [ "sim" ]);
      ("offline.words_per_job",
        List.fold_left (fun a j -> a +. j.words) 0.0 results /. float_of_int njobs) ]
    @ List.map (fun (k, v) -> (k, float_of_int v)) work
  in
  let digest =
    Digest.to_hex
      (Digest.string (String.concat " " (List.map (fun j -> Q.to_string j.height) first_round)))
  in
  let trees = List.filter_map (fun j -> j.tree) results in
  { Outcome.values = e2e @ layer; counts;
    counters = List.map (fun (k, v) -> (k, Json.Int v)) work @ [ ("heights_digest", Json.String digest) ];
    trace = (if trace then [ ("jobs", Json.List (List.map Spans.to_json trees)) ] else []);
    notes =
      [ Printf.sprintf "%d rounds of %d jobs in %.1f s (%s)" nrounds (List.length rounds.(0))
          (Unix.gettimeofday () -. t0) (Outcome.describe counts) ] }
