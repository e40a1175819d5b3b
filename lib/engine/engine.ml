module Q = Spp_num.Rat
module Placement = Spp_geom.Placement
module Io = Spp_core.Io
module Validate = Spp_core.Validate
module Cancel = Spp_util.Cancel
module Clock = Spp_util.Clock
module Metrics = Spp_obs.Metrics
module Trace = Spp_obs.Trace

type status =
  | Solved
  | Timed_out
  | Invalid
  | Failed of string
  | Skipped of string

type outcome = {
  solver : string;
  status : status;
  height : Q.t option;
  time_ms : float;
}

type source = Computed | Memory_cache | Disk_cache

let source_to_string = function
  | Computed -> "computed"
  | Memory_cache -> "cache.memory"
  | Disk_cache -> "cache.disk"

type result = {
  placement : Placement.t;
  height : Q.t;
  winner : string;
  source : source;
  outcomes : outcome list;
  time_ms : float;
  degraded : bool;
  lower_bound : Q.t;
  gap : Q.t;
}

(* An answer as the LRU keeps it: everything a byte-path hit replies
   with, the bound and the encoded placement included, so {!find_text}
   derives nothing from the instance. *)
type entry = {
  e_placement : Placement.t;
  e_height : Q.t;
  e_winner : string;
  e_lower_bound : Q.t;
  e_text : string;  (* Io.placement_to_string e_placement *)
}

type t = {
  cache : entry Lru.t;
  texts : string Lru.t;  (* Digest.string of a request's text -> fingerprint *)
  store : Store.t option;
  tm : Telemetry.t;
  m_solve_ms : Metrics.histogram;
  m_cancel_polls : Metrics.counter;
}

(* Node-count ladder for the B&B histogram: searches span a handful of
   nodes (seed met the bound) to ~1e6 (n=7 worst case). *)
let profile_buckets = [| 1.0; 10.0; 100.0; 1_000.0; 10_000.0; 100_000.0; 1_000_000.0 |]

let create ?(cache_capacity = 128) ?store_dir ?store_max_entries ?telemetry () =
  let cache = Lru.create ~capacity:cache_capacity in
  let texts = Lru.create ~capacity:cache_capacity in
  let store =
    Option.map (fun dir -> Store.create ?max_entries:store_max_entries ~dir ()) store_dir
  in
  let tm = Option.value telemetry ~default:(Telemetry.create ()) in
  let reg = Telemetry.metrics tm in
  Metrics.counter_fn reg ~help:"In-memory LRU evictions" "spp_cache_evictions_total"
    (fun () -> (Lru.stats cache).Lru.evictions);
  Metrics.gauge_fn reg ~help:"Entries in the in-memory LRU" "spp_cache_entries"
    (fun () -> float_of_int (Lru.stats cache).Lru.size);
  Metrics.gauge_fn reg ~help:"Entries in the request-text index in front of the LRU"
    "spp_cache_text_entries"
    (fun () -> float_of_int (Lru.length texts));
  Option.iter
    (fun store ->
      Metrics.gauge_fn reg ~help:"Entries in the disk store" "spp_store_entries"
        (fun () -> float_of_int (Store.length store));
      Metrics.counter_fn reg ~help:"Disk store entries deleted by capacity pruning"
        "spp_store_prunes_total"
        (fun () -> Store.prunes store);
      Metrics.counter_fn reg ~help:"Disk store entries rejected by checksum on load"
        "spp_store_corrupt_total"
        (fun () -> Store.corrupt store))
    store;
  (* Register the profiling families eagerly (base series at zero), so a
     scrape exposes them before — or without — any solver incrementing
     the per-algorithm labelled series. *)
  ignore (Metrics.counter reg ~help:"Simplex pivot iterations" "spp_pivots_total");
  ignore
    (Metrics.counter reg ~help:"Branch-and-bound subtrees pruned by bound"
       "spp_bb_pruned_total");
  ignore
    (Metrics.counter reg ~help:"Branch-and-bound states cut by the dominance table"
       "spp_bb_dominated_total");
  ignore
    (Metrics.counter reg ~help:"Columns priced into the restricted master"
       "spp_colgen_columns_total");
  ignore
    (Metrics.counter reg ~help:"Column-generation master re-solve rounds"
       "spp_colgen_rounds_total");
  ignore
    (Metrics.histogram reg ~help:"Branch-and-bound nodes expanded per solve"
       ~buckets:profile_buckets "spp_bb_nodes");
  { cache; texts; store; tm;
    m_solve_ms =
      Metrics.histogram reg ~help:"End-to-end solve latency in milliseconds" "spp_solve_ms";
    m_cancel_polls =
      Metrics.counter reg ~help:"Cancellation points reached by raced solvers"
        "spp_cancel_polls_total" }

let telemetry t = t.tm
let cache_stats t = Lru.stats t.cache
let cache_capacity t = Lru.capacity t.cache
let store_dir t = Option.map Store.dir t.store

let pp_status fmt = function
  | Solved -> Format.pp_print_string fmt "solved"
  | Timed_out -> Format.pp_print_string fmt "timeout"
  | Invalid -> Format.pp_print_string fmt "invalid"
  | Failed msg -> Format.fprintf fmt "failed(%s)" msg
  | Skipped reason -> Format.fprintf fmt "skipped(%s)" reason

let status_counter = function
  | Solved -> Some "solver.solved"
  | Timed_out -> Some "solver.timeout"
  | Invalid -> Some "solver.invalid"
  | Failed _ -> Some "solver.failed"
  | Skipped _ -> None

let status_label = function
  | Solved -> "solved"
  | Timed_out -> "timeout"
  | Invalid -> "invalid"
  | Failed _ -> "failed"
  | Skipped _ -> "skipped"

let rects_of = function
  | Io.Prec inst -> inst.Spp_core.Instance.Prec.rects
  | Io.Release inst -> Spp_core.Instance.Release.rects inst

let violations parsed p =
  match parsed with
  | Io.Prec inst -> Validate.check_prec inst p
  | Io.Release inst -> Validate.check_release inst p

let lower_bound_of = function
  | Io.Prec inst -> Spp_core.Lower_bounds.prec inst
  | Io.Release inst -> Spp_core.Lower_bounds.release inst

(* Open [name] under the trace's root when tracing is on; [k] receives the
   span only for attaching child spans and fields. *)
let traced trace name ?fields k =
  match trace with
  | None -> k None
  | Some tr ->
    Trace.with_span tr ~parent:(Trace.root tr) name (fun s ->
        Option.iter (Trace.add_fields tr s) fields;
        k (Some s))

(* The shared anytime incumbent: best validated packing known so far,
   (winner name, height, placement). Seeded with the greedy fallback
   before the race starts and updated by racers as they finish, so when
   the budget expires mid-race there is always a sound answer to degrade
   to. Lock-free: a compare-and-set loop keeps the minimum height. *)
let publish incumbent name p =
  let h = Placement.height p in
  let rec loop () =
    let cur = Atomic.get incumbent in
    let better =
      match cur with None -> true | Some (_, h', _) -> Q.compare h h' < 0
    in
    if better && not (Atomic.compare_and_set incumbent cur (Some (name, h, p)))
    then loop ()
  in
  loop ()

(* One raced member: run under the shared token, validate, classify.
   Each member has its domain to itself, so resetting the ambient
   profile accumulator here and reading it back in [finish] attributes
   the counted work to exactly this algorithm. *)
let race_one parsed cancel incumbent trace (spec : Portfolio.spec) =
  let t0 = Clock.now_ms () in
  Spp_obs.Profile.reset ();
  let s =
    match trace with
    | None -> None
    | Some (tr, race_span) -> Some (tr, Trace.span tr ~parent:race_span ("algo:" ^ spec.Portfolio.name))
  in
  let finish status height placement =
    let prof = Spp_obs.Profile.read () in
    Option.iter
      (fun (tr, s) ->
        let pf =
          List.filter_map
            (fun (k, v) -> if v > 0 then Some (k, Spp_obs.Field.Int v) else None)
            [ ("pivots", prof.Spp_obs.Profile.pivots);
              ("bb_nodes", prof.Spp_obs.Profile.bb_nodes);
              ("bb_pruned", prof.Spp_obs.Profile.bb_pruned);
              ("bb_dominated", prof.Spp_obs.Profile.bb_dominated);
              ("colgen_columns", prof.Spp_obs.Profile.colgen_columns);
              ("colgen_rounds", prof.Spp_obs.Profile.colgen_rounds) ]
        in
        Trace.finish
          ~fields:(("status", Spp_obs.Field.String (status_label status)) :: pf)
          tr s)
      s;
    ( { solver = spec.Portfolio.name; status; height; time_ms = Clock.elapsed_ms t0 },
      placement, prof )
  in
  match spec.Portfolio.run ~cancel parsed with
  | p -> (
    let faults =
      match s with
      | None -> violations parsed p
      | Some (tr, s) -> Trace.with_span tr ~parent:s "validate" (fun _ -> violations parsed p)
    in
    match faults with
    | [] ->
      publish incumbent spec.Portfolio.name p;
      finish Solved (Some (Placement.height p)) (Some p)
    | _ :: _ -> finish Invalid None None)
  | exception Cancel.Cancelled -> finish Timed_out None None
  | exception e -> finish (Failed (Printexc.to_string e)) None None

let record_outcome t (o : outcome) =
  Option.iter (Telemetry.incr t.tm) (status_counter o.status);
  (match o.status with
   | Skipped _ -> ()
   | status ->
     Metrics.incr
       (Metrics.counter (Telemetry.metrics t.tm)
          ~help:"Raced solver outcomes by algorithm"
          ~labels:[ ("algo", o.solver); ("outcome", status_label status) ]
          "spp_algo_outcomes_total"));
  Telemetry.record t.tm ~name:"solver"
    ([ ("solver", Telemetry.String o.solver);
       ("status", Telemetry.String (Format.asprintf "%a" pp_status o.status));
       ("ms", Telemetry.Float o.time_ms) ]
     @ match o.height with
       | Some h -> [ ("height", Telemetry.String (Q.to_string h)) ]
       | None -> [])

(* Fold one raced member's ambient-profile snapshot into the labelled
   solver-introspection series. *)
let record_profile t algo (p : Spp_obs.Profile.snapshot) =
  if not (Spp_obs.Profile.is_zero p) then begin
    let reg = Telemetry.metrics t.tm in
    let count name help v =
      if v > 0 then Metrics.incr ~by:v (Metrics.counter reg ~help ~labels:[ ("algo", algo) ] name)
    in
    count "spp_pivots_total" "Simplex pivot iterations" p.Spp_obs.Profile.pivots;
    count "spp_bb_pruned_total" "Branch-and-bound subtrees pruned by bound"
      p.Spp_obs.Profile.bb_pruned;
    count "spp_bb_dominated_total" "Branch-and-bound states cut by the dominance table"
      p.Spp_obs.Profile.bb_dominated;
    count "spp_colgen_columns_total" "Columns priced into the restricted master"
      p.Spp_obs.Profile.colgen_columns;
    count "spp_colgen_rounds_total" "Column-generation master re-solve rounds"
      p.Spp_obs.Profile.colgen_rounds;
    if p.Spp_obs.Profile.bb_nodes > 0 then
      Metrics.observe
        (Metrics.histogram reg ~help:"Branch-and-bound nodes expanded per solve"
           ~buckets:profile_buckets ~labels:[ ("algo", algo) ] "spp_bb_nodes")
        (float_of_int p.Spp_obs.Profile.bb_nodes)
  end

let record_win t winner =
  Metrics.incr
    (Metrics.counter (Telemetry.metrics t.tm) ~help:"Races won by algorithm"
       ~labels:[ ("algo", winner) ] "spp_algo_wins_total")

let finish_result t fp (r : result) =
  Metrics.observe t.m_solve_ms r.time_ms;
  Telemetry.record t.tm ~name:"solve"
    ([ ("fingerprint", Telemetry.String fp);
      ("winner", Telemetry.String r.winner);
      ("height", Telemetry.String (Q.to_string r.height));
      ("source", Telemetry.String (source_to_string r.source));
      ("ms", Telemetry.Float r.time_ms) ]
     @ (if r.degraded then [ ("degraded", Telemetry.String "true") ] else []));
  r

let entry ~winner ~lower_bound placement height =
  { e_placement = placement; e_height = height; e_winner = winner;
    e_lower_bound = lower_bound; e_text = Io.placement_to_string placement }

(* The byte path. No [Telemetry.record]: the event log is never trimmed,
   and a hit this cheap would grow it several times faster than a solve. *)
let find_text ?trace t text =
  let t0 = Clock.now_ms () in
  let known =
    traced trace "cache.probe" ~fields:[ ("key", Spp_obs.Field.String "text") ] (fun _ ->
        match Lru.find t.texts (Digest.string text) with
        | Some fp when Lru.mem t.cache fp -> Some fp
        | Some _ | None -> None)
  in
  match known with
  | None -> None
  | Some fp -> (
    (* Probe the fault point once per request, as [solve] does, and only
       for a hit: a miss goes on to [solve], which probes it there. The
       probe comes before the counted lookup, so a request the fault
       fails counts nothing, as in [solve]. *)
    Spp_util.Fault.hit "engine.solve";
    match Lru.find_hit t.cache fp with
    | None -> None
    | Some e ->
      Telemetry.incr t.tm "solve.runs";
      Telemetry.incr t.tm "cache.hit";
      Telemetry.incr t.tm "cache.hit.memory";
      let time_ms = Clock.elapsed_ms t0 in
      Metrics.observe t.m_solve_ms time_ms;
      Some
        ( { placement = e.e_placement; height = e.e_height; winner = e.e_winner;
            source = Memory_cache; outcomes = []; time_ms; degraded = false;
            lower_bound = e.e_lower_bound; gap = Q.sub e.e_height e.e_lower_bound },
          e.e_text ))

let solve ?budget_ms ?algos ?workers ?trace ?text t parsed =
  Spp_util.Fault.hit "engine.solve";
  let t0 = Clock.now_ms () in
  Telemetry.incr t.tm "solve.runs";
  let fp = Fingerprint.parsed parsed in
  (* Text to fingerprint depends on the bytes alone, so every path below
     may fill the index — whether an answer exists stays the LRU's call. *)
  (match text with None -> () | Some s -> Lru.add t.texts (Digest.string s) fp);
  let lb = lower_bound_of parsed in
  let gap_of height = Q.sub height lb in
  let probe =
    traced trace "cache.probe" (fun _ ->
        match Lru.find t.cache fp with
        | Some e -> `Memory e
        | None -> (
          match t.store with
          | None -> `Miss
          | Some store -> (
            match Store.find store ~rects:(rects_of parsed) ~fingerprint:fp with
            | Some (winner, p) when violations parsed p = [] -> `Disk (winner, p)
            | Some _ | None -> `Miss)))
  in
  match probe with
  | `Memory e ->
    Telemetry.incr t.tm "cache.hit";
    Telemetry.incr t.tm "cache.hit.memory";
    finish_result t fp
      { placement = e.e_placement; height = e.e_height; winner = e.e_winner;
        source = Memory_cache; outcomes = []; time_ms = Clock.elapsed_ms t0;
        degraded = false; lower_bound = lb; gap = gap_of e.e_height }
  | `Disk (winner, p) ->
    Telemetry.incr t.tm "cache.hit";
    Telemetry.incr t.tm "cache.hit.disk";
    let height = Placement.height p in
    Lru.add t.cache fp (entry ~winner ~lower_bound:lb p height);
    finish_result t fp
      { placement = p; height; winner; source = Disk_cache; outcomes = [];
        time_ms = Clock.elapsed_ms t0; degraded = false; lower_bound = lb;
        gap = gap_of height }
  | `Miss ->
    Telemetry.incr t.tm "cache.miss";
    let specs =
      match algos with Some names -> Portfolio.of_names names | None -> Portfolio.defaults parsed
    in
    let runnable, skipped =
      List.partition (fun (s : Portfolio.spec) -> s.Portfolio.applies parsed) specs
    in
    let skipped =
      List.map
        (fun (s : Portfolio.spec) ->
          { solver = s.Portfolio.name; status = Skipped "inapplicable"; height = None;
            time_ms = 0.0 })
        skipped
    in
    let cancel =
      match budget_ms with None -> Cancel.never | Some ms -> Cancel.with_deadline_ms ms
    in
    (* Seed the anytime incumbent with the guaranteed-fast greedy schedule
       before the race starts: whatever the budget does to the racers,
       there is a sound packing to degrade to. [engine.incumbent]
       suppresses the seed so the no-incumbent recovery path can be
       exercised. *)
    let incumbent = Atomic.make None in
    (try
       Spp_util.Fault.hit "engine.incumbent";
       let p = traced trace "incumbent" (fun _ -> Portfolio.fallback parsed) in
       assert (violations parsed p = []);
       publish incumbent "ls(incumbent)" p
     with Spp_util.Fault.Injected _ -> Telemetry.incr t.tm "incumbent.skipped");
    let raced =
      traced trace "race" (fun race_span ->
          let sub =
            match (trace, race_span) with Some tr, Some s -> Some (tr, s) | _ -> None
          in
          Spp_util.Parallel.map ?workers (race_one parsed cancel incumbent sub) runnable)
    in
    (match Cancel.polls cancel with
     | 0 -> ()
     | n -> Metrics.incr ~by:n t.m_cancel_polls);
    List.iter (fun ((o : outcome), _, prof) -> record_profile t o.solver prof) raced;
    let outcomes = List.map (fun (o, _, _) -> o) raced @ skipped in
    let best =
      List.fold_left
        (fun acc ((o : outcome), p, _) ->
          match (p, acc) with
          | None, _ -> acc
          | Some p, None -> Some (o, p)
          | Some p, Some (o', _) -> (
            match (o.height, o'.height) with
            | Some h, Some h' when Q.compare h h' < 0 -> Some (o, p)
            | _ -> acc))
        None raced
    in
    (* Degraded = the budget expired before any racer finished, so the
       answer is the anytime incumbent (or safety-net fallback), not a
       completed portfolio member's: the reply says so and nothing caches
       it (a repeat with a roomier budget should recompute, not replay
       the cut-short answer). A race where some members timed out but one
       solved is a normal, full-quality answer. *)
    let degraded =
      best = None
      && List.exists (fun ((o : outcome), _, _) -> o.status = Timed_out) raced
    in
    let winner, placement, outcomes =
      match best with
      | Some (o, p) -> (o.solver, p, outcomes)
      | None -> (
        match Atomic.get incumbent with
        | Some (name, _, p) ->
          (* No racer finished in budget: the anytime incumbent is the
             answer — already validated when it was published. *)
          Telemetry.incr t.tm "solver.incumbent";
          (name, p, outcomes)
        | None ->
          (* Every member timed out / failed and the incumbent seed was
             suppressed: uncancellable safety net. *)
          let t1 = Clock.now_ms () in
          let p =
            traced trace "fallback" (fun _ -> Portfolio.fallback parsed)
          in
          assert (violations parsed p = []);
          let o =
            { solver = "ls(fallback)"; status = Solved;
              height = Some (Placement.height p); time_ms = Clock.elapsed_ms t1 }
          in
          Telemetry.incr t.tm "solver.fallback";
          (o.solver, p, outcomes @ [ o ]))
    in
    List.iter (record_outcome t) outcomes;
    record_win t winner;
    let height = Placement.height placement in
    if degraded then Telemetry.incr t.tm "solve.degraded"
    else begin
      Lru.add t.cache fp (entry ~winner ~lower_bound:lb placement height);
      (* A failed cache write must never fail the solve we just computed. *)
      Option.iter
        (fun store ->
          try Store.add store ~fingerprint:fp ~winner placement
          with _ -> Telemetry.incr t.tm "store.write.failed")
        t.store
    end;
    finish_result t fp
      { placement; height; winner; source = Computed; outcomes;
        time_ms = Clock.elapsed_ms t0; degraded; lower_bound = lb;
        gap = gap_of height }
