(* The three serving workloads: load from this process against `spp
   serve` (and `spp proxy`) children, then validation, counters from the
   [metrics] op, and, on a traced run, the in-process replay. *)

module Protocol = Spp_server.Protocol
module Json = Spp_server.Json
module Io = Spp_core.Io
module Q = Spp_num.Rat
module Prng = Spp_util.Prng
module Metrics = Spp_obs.Metrics
module Engine = Spp_engine.Engine

type spec = {
  name : string;
  with_proxy : bool;
  rate : float;  (** open-loop requests per second *)
  slo_ms : float;
      (** latency limit for [slo_attainment], near the 93rd percentile of
          today's open loop: a limit every request meets would make the
          metric blind to a tail that grows *)
  novel_every : int;
      (** every [novel_every]-th draw is a never-seen instance, the rest
          are Zipf over the hot set; 1 = all novel, 0 = none *)
  novel : int -> int -> Gen.inst;  (** the [i]-th novel instance of a seed *)
  twin_novel : bool;  (** send each novel instance twice, 1 ms apart *)
  replay_n : int;  (** request lines replayed in-process on a traced run *)
}

let hot_repeat =
  { name = "hot_repeat"; with_proxy = false; rate = 300.0; slo_ms = 1.5; novel_every = 0;
    novel = Gen.cold; twin_novel = false; replay_n = 200 }

let cold_exact =
  { name = "cold_exact"; with_proxy = false; rate = 20.0; slo_ms = 100.0; novel_every = 1;
    novel = Gen.cold; twin_novel = false; replay_n = 16 }

let proxy_mixed =
  { name = "proxy_mixed"; with_proxy = true; rate = 200.0; slo_ms = 1.5; novel_every = 50;
    novel = Gen.novel_dag; twin_novel = true; replay_n = 200 }

(* A fixed share, not a coin flip per request: with a few dozen novel
   requests per run, a random share would move the tail percentiles
   from run to run by itself. *)
let is_novel spec k = spec.novel_every > 0 && k mod spec.novel_every = spec.novel_every - 1

type cfg = {
  seed : int;
  seconds : float;
  trace : bool;
  replay : bool;  (** run the in-process replay (traced runs and counter checks) *)
  rounds : int;  (** fresh systems measured in turn; metrics are medians over them *)
  spp : string;
}

(* Instance ids: below [novel_base] an index into the hot set; above it
   the never-seen instance [spec.novel seed (id - novel_base)]. The open
   and closed loops draw novel ids from disjoint ranges; the warm-up's
   come from seed 0 at an offset neither reaches. *)
let novel_base = 1_000_000
let closed_novel = 500_000
let warm_novel = 900_000
let hot_size = 64
let connections = 2
let trace_every = 20

let solve_line ?trace_id text =
  Protocol.encode_request
    (Protocol.Solve { instance = text; budget_ms = None; deadline_ms = None; algos = None; trace_id })

(* The request sequence in draw order, long enough to cover
   [duration_ms] and [at_least] items. Its prefix does not depend on the
   run length, which is what makes the replay sample fixed. *)
let draw spec seed ~duration_ms ~at_least =
  let rng = Gen.stream seed 10 in
  let zipf = Gen.zipf hot_size in
  let rec go k t acc count =
    if t >= duration_ms && count >= at_least then List.rev acc
    else
      let t = t +. (Prng.exponential rng ~rate:spec.rate *. 1000.0) in
      let items =
        if not (is_novel spec k) then [ (t, zipf rng) ]
        else
          let id = novel_base + k in
          if spec.twin_novel then [ (t, id); (t +. 1.0, id) ] else [ (t, id) ]
      in
      go (k + 1) t (List.rev_append items acc) (count + List.length items)
  in
  go 0 0.0 [] 0

(* ------------------------------------------------------------------ *)
(* Checking replies *)

let rects_of = function
  | Io.Prec p -> p.Spp_core.Instance.Prec.rects
  | Io.Release r -> Spp_core.Instance.Release.rects r

(* A reply is valid when its placement parses against the instance's
   rects, passes the independent validator, and its claimed height and
   lower bound are the exact values. Returns height / lower bound. *)
let check_answer (inst : Gen.inst) (r : Protocol.solve_reply) =
  match Io.parse_placement ~rects:(rects_of inst.Gen.parsed) r.Protocol.placement with
  | exception Failure m -> Error m
  | p -> (
    let violations = Replay.validate inst.Gen.parsed p in
    let h = Spp_geom.Placement.height p in
    let lb = Replay.lower_bound inst.Gen.parsed in
    let same s q = match Q.of_string s with v -> Q.equal v q | exception _ -> false in
    match violations with
    | _ :: _ -> Error "placement violates the instance"
    | [] when not (same r.Protocol.height h) -> Error "claimed height differs from the placement's"
    | [] when not (Option.fold ~none:false ~some:(fun s -> same s lb) r.Protocol.lower_bound) ->
      Error "lower bound missing or wrong"
    | [] -> Ok (Q.to_float (Q.div h lb)))

type checked = { cls : Outcome.cls; quality : float option; trace : Json.t option; why : string option }

(* Identical replies to one instance get one validation: the hot set's
   answers repeat byte for byte. *)
let classifier inst_of =
  let memo = Hashtbl.create 256 in
  fun id reply ->
    let plain cls why = { cls; quality = None; trace = None; why } in
    match reply with
    | Error e -> plain Outcome.Transport (Some e)
    | Ok line -> (
      match Protocol.decode_response line with
      | Error e -> plain Outcome.Transport (Some e)
      | Ok (Protocol.Solve_ok r) -> (
        let key = (id, r.Protocol.placement) in
        let verdict =
          match Hashtbl.find_opt memo key with
          | Some v -> v
          | None ->
            let v = check_answer (inst_of id) r in
            Hashtbl.add memo key v;
            v
        in
        match verdict with
        | Error why -> plain Outcome.Invalid (Some why)
        | Ok q ->
          { cls = (if r.Protocol.degraded then Outcome.Degraded else Outcome.Ok_);
            quality = Some q; trace = r.Protocol.trace; why = None })
      | Ok (Protocol.Error { code = Protocol.Overloaded | Protocol.Wont_make_it; _ }) ->
        plain Outcome.Shed None
      | Ok (Protocol.Error { message; _ }) -> plain Outcome.Failed (Some message)
      | Ok _ -> plain Outcome.Transport (Some "reply of another op"))

let valid c = c.cls = Outcome.Ok_ || c.cls = Outcome.Degraded

(* ------------------------------------------------------------------ *)
(* Counters from the [metrics] op, taken around every phase *)

type snap = {
  serve_m : Protocol.metrics_reply;
  proxy_m : Protocol.metrics_reply option;
  cpu_ms : float;
  store : int;
}

let snap (sut : Sut.t) =
  { serve_m = Sut.metrics sut.Sut.serve_addr;
    proxy_m = Option.map (fun (_, a) -> Sut.metrics a) sut.Sut.proxy;
    cpu_ms = Sut.cpu_ms sut; store = Sut.store_entries sut }

let counter (m : Protocol.metrics_reply) name =
  Option.value ~default:0 (List.assoc_opt name m.Protocol.counters)

let counter_delta a b name = float_of_int (counter b name - counter a name)

(* Quantile of the observations a histogram gained between two
   snapshots. *)
let hist_delta (a : Protocol.metrics_reply) (b : Protocol.metrics_reply) name q =
  match (List.assoc_opt name a.Protocol.histograms, List.assoc_opt name b.Protocol.histograms) with
  | Some ha, Some hb when List.length ha.Protocol.buckets = List.length hb.Protocol.buckets ->
    let buckets =
      List.map2 (fun (ub, ca) (_, cb) -> (ub, cb - ca)) ha.Protocol.buckets hb.Protocol.buckets
    in
    Metrics.hist_quantile
      { Metrics.buckets; total = hb.Protocol.count - ha.Protocol.count;
        sum = hb.Protocol.sum -. ha.Protocol.sum }
      q
  | _ -> 0.0

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* ------------------------------------------------------------------ *)
(* Live traces *)

(* A traced request's tree: the driver's [client.request] span with the
   responder's tree (serve's [request], or the proxy's stitched [proxy]
   tree) inside it, centred, since the two clocks share no epoch. *)
let client_tree ~dur responder =
  let len = Spans.length responder in
  { Spans.name = "client.request"; start = 0.0; dur = Some dur;
    children = [ Spans.shift (((dur -. len) /. 2.0) -. responder.Spans.start) responder ] }

(* Split each traced request's client-observed time into the wire (client
   span minus the responder's tree), each child span of the responder's
   root, and the root's own untraced remainder. These add up exactly for
   one request, so the median is decomposed through the requests around
   it: the components are averaged over the traced requests between the
   40th and 60th percentile of client time and compared with the median
   client time. *)
let attribution trees =
  let sorted = List.sort (fun a b -> compare (Spans.length a) (Spans.length b)) trees in
  let n = List.length sorted in
  let band = List.filteri (fun i _ -> i >= (2 * n / 5) && i <= max (2 * n / 5) ((3 * n / 5) - 1)) sorted in
  let comps = Hashtbl.create 8 in
  let add name v = Hashtbl.replace comps name (v +. Option.value ~default:0.0 (Hashtbl.find_opt comps name)) in
  List.iter
    (fun (client : Spans.node) ->
      match client.Spans.children with
      | [ root ] ->
        add "wire" (Spans.length client -. Spans.length root);
        add (root.Spans.name ^ ".self") (Spans.self_ms root);
        List.iter (fun (c : Spans.node) -> add c.Spans.name (Spans.length c)) root.Spans.children
      | _ -> ())
    band;
  let k = float_of_int (max 1 (List.length band)) in
  let parts = Hashtbl.fold (fun name v acc -> (name, v /. k) :: acc) comps [] |> List.sort compare in
  let client = Outcome.median (List.map Spans.length trees) in
  let sum = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 parts in
  (client, parts, if client = 0.0 then 0.0 else 100.0 *. (client -. sum) /. client)

(* ------------------------------------------------------------------ *)
(* The run *)

let warm addr lines =
  let conns = Array.init connections (fun _ -> Load.connect addr) in
  let samples =
    Fun.protect ~finally:(fun () -> Array.iter Load.close conns) (fun () ->
        Load.open_loop conns ~lines ~due:(Array.make (Array.length lines) 0.0))
  in
  Array.iter
    (fun (s : Load.sample) ->
      match Result.map Protocol.decode_response s.Load.reply with
      | Ok (Ok (Protocol.Solve_ok _)) -> ()
      | _ -> Sut.fail "warm-up request %d was not answered with a solve" s.Load.idx)
    samples

(* One measured round: a fresh system under test (spawn, health, warm-up:
   the timed set-up), the open loop, then the closed loop, with [metrics]
   snapshots around each phase and the children's peak RSS at the end. *)
type round = {
  setup_s : float;
  open_samples : Load.sample array;
  closed_samples : Load.sample array;
  closed_ms : float;  (** closed-loop wall time, start to last reply *)
  s0 : snap;
  s1 : snap;
  s2 : snap;
  rss_mb : float;
}

let measure_round cfg spec ~warm_lines ~lines ~due ~pick ~closed_ms =
  let t0 = Unix.gettimeofday () in
  let sut = Sut.start ~spp:cfg.spp ~with_proxy:spec.with_proxy in
  Fun.protect ~finally:(fun () -> Sut.stop sut) (fun () ->
      warm (Sut.front sut) warm_lines;
      let setup_s = Unix.gettimeofday () -. t0 in
      let conns = Array.init connections (fun _ -> Load.connect (Sut.front sut)) in
      Fun.protect ~finally:(fun () -> Array.iter Load.close conns) (fun () ->
          let s0 = snap sut in
          let open_samples = Load.open_loop conns ~lines ~due in
          let s1 = snap sut in
          let closed_samples, closed_ms = Load.closed_loop conns ~pick:(pick ()) ~duration_ms:closed_ms in
          let s2 = snap sut in
          { setup_s; open_samples; closed_samples; closed_ms; s0; s1; s2; rss_mb = Sut.peak_rss_mb sut }))

let median_by_key (rounds : (string * float) list list) =
  match rounds with
  | [] -> []
  | first :: _ ->
    List.map
      (fun (k, _) -> (k, Spp_util.Stats.median (List.filter_map (List.assoc_opt k) rounds)))
      first

(* What a round leaves once its replies are validated. *)
type round_result = {
  pairs : (Load.sample * checked) list;  (** open loop *)
  closed_rate : float;  (** valid closed-loop replies per second *)
  open_cpu_ms : float;
  open_ops : int;
  counts : Outcome.counts;
  per_round : (string * float) list;  (** reported as medians over rounds *)
}

let max_rounds = 8

let run cfg spec =
  let seed = cfg.seed in
  let hot = Gen.hot_set seed in
  let inst_of id = if id < novel_base then hot.(id) else spec.novel seed (id - novel_base) in
  let hot_lines = Array.map (fun (i : Gen.inst) -> solve_line i.Gen.text) hot in
  let line_of id = if id < novel_base then hot_lines.(id) else solve_line (inst_of id).Gen.text in
  (* The run's time is split evenly over the rounds, 60% open loop and
     40% closed loop in each. One open-loop schedule spans all rounds;
     round r takes the requests due in its r-th slice, so novel
     instances are never repeated and each run sees rounds x as many. *)
  let rounds = max 1 (min max_rounds cfg.rounds) in
  let per_round_ms = cfg.seconds *. 1000.0 /. float_of_int rounds in
  let open_ms = 0.6 *. per_round_ms and closed_ms = 0.4 *. per_round_ms in
  let drawn = draw spec seed ~duration_ms:(float_of_int rounds *. open_ms) ~at_least:spec.replay_n in
  let schedule =
    List.filter (fun (t, _) -> t < float_of_int rounds *. open_ms) drawn
    |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
    |> Array.of_list
  in
  (* 1 in [trace_every], chosen by a hash of the position so the choice
     does not alias with the round-robin kinds or the novel stride *)
  let traced i = cfg.trace && Hashtbl.hash i mod trace_every = 0 in
  let line_at i =
    let id = snd schedule.(i) in
    if traced i then solve_line ~trace_id:(Printf.sprintf "%s-%d-%d" spec.name seed i) (inst_of id).Gen.text
    else line_of id
  in
  (* positions of round [r]'s slice in [schedule] *)
  let slice r =
    let lo = float_of_int r *. open_ms and hi = float_of_int (r + 1) *. open_ms in
    List.filter (fun i -> fst schedule.(i) >= lo && fst schedule.(i) < hi)
      (List.init (Array.length schedule) Fun.id)
    |> Array.of_list
  in
  (* Warm-up: the hot set, or (all novel) a few cold instances from a
     seed-independent stream, so set-up time does not follow the seed. *)
  let warm_lines =
    if spec.novel_every <> 1 then hot_lines
    else Array.init 8 (fun k -> solve_line (Gen.cold 0 (warm_novel + k)).Gen.text)
  in
  let pick r () =
    let rngs = Array.init connections (fun ci -> Gen.stream seed ((100 * r) + 20 + ci)) in
    let zipf = Gen.zipf hot_size in
    fun ci k ->
      let id =
        if is_novel spec k then novel_base + closed_novel + (r * 50_000) + (k * connections) + ci
        else zipf rngs.(ci)
      in
      (id, line_of id)
  in
  let classify = classifier inst_of in
  let notes = ref [] in
  let note fmt = Printf.ksprintf (fun s -> notes := s :: !notes) fmt in
  let tally = Array.fold_left (fun c x -> Outcome.add c x.cls) in
  (* Each round's replies are validated as soon as its load has stopped,
     and only the verdicts are kept, so the driver's heap does not grow
     from round to round. *)
  let results =
    List.init rounds (fun r ->
        let pos = slice r in
        let base = float_of_int r *. open_ms in
        let lines = Array.map line_at pos and due = Array.map (fun i -> fst schedule.(i) -. base) pos in
        let m = measure_round cfg spec ~warm_lines ~lines ~due ~pick:(pick r) ~closed_ms in
        (* open-loop samples re-indexed to schedule positions *)
        let open_samples = Array.map (fun (s : Load.sample) -> { s with Load.idx = pos.(s.Load.idx) }) m.open_samples in
        let open_checked =
          Array.map (fun (s : Load.sample) -> classify (snd schedule.(s.Load.idx)) s.Load.reply) open_samples
        in
        let closed_checked =
          Array.map (fun (s : Load.sample) -> classify s.Load.idx s.Load.reply) m.closed_samples
        in
        Array.iter
          (fun c ->
            match (c.cls, c.why) with
            | (Outcome.Invalid | Outcome.Transport | Outcome.Failed), Some why -> note "error: %s" why
            | _ -> ())
          (Array.append open_checked closed_checked);
        let open_counts = tally Outcome.zero open_checked in
        let counts = tally open_counts closed_checked in
        let s0 = m.s0 and s1 = m.s1 and s2 = m.s2 in
        let cache f = float_of_int (f s1.serve_m.Protocol.cache - f s0.serve_m.Protocol.cache) in
        let pm f = match (s0.proxy_m, s1.proxy_m) with Some a, Some b -> f a b | _ -> 0.0 in
        { pairs = Array.to_list (Array.map2 (fun s c -> ({ s with Load.reply = Ok "" }, c)) open_samples open_checked);
          closed_rate =
            float_of_int (Array.fold_left (fun n c -> if valid c then n + 1 else n) 0 closed_checked)
            /. (m.closed_ms /. 1000.0);
          open_cpu_ms = s1.cpu_ms -. s0.cpu_ms;
          open_ops = Outcome.attempted open_counts - open_counts.Outcome.transport;
          counts;
          per_round =
            [ ("setup_s", m.setup_s); ("peak_rss_mb", m.rss_mb);
              ("server.queue_wait_p50_ms", hist_delta s0.serve_m s1.serve_m "spp_queue_wait_ms" 0.5);
              ("server.queue_wait_p99_ms", hist_delta s0.serve_m s1.serve_m "spp_queue_wait_ms" 0.99);
              ("server.request_p50_ms", hist_delta s0.serve_m s1.serve_m "spp_request_ms" 0.5);
              ("server.shed", counter_delta s0.serve_m s2.serve_m "spp_requests_shed_total");
              ("server.degraded", counter_delta s0.serve_m s2.serve_m "spp_degraded_replies_total");
              ("engine.cache_hit_ratio",
                let h = cache (fun c -> c.Protocol.hits) and m = cache (fun c -> c.Protocol.misses) in
                ratio h (h +. m));
              ("engine.evictions",
                float_of_int
                  (s2.serve_m.Protocol.cache.Protocol.evictions - s0.serve_m.Protocol.cache.Protocol.evictions));
              ("store.writes", float_of_int (s2.store - s0.store));
              ("proxy.cache_hit_ratio",
                pm (fun a b ->
                    let h = counter_delta a b "spp_proxy_cache_hits_total"
                    and m = counter_delta a b "spp_proxy_cache_misses_total" in
                    ratio h (h +. m)));
              ("proxy.coalesced",
                match (s0.proxy_m, s2.proxy_m) with
                | Some a, Some b -> counter_delta a b "spp_proxy_coalesced_total"
                | _ -> 0.0);
              ("proxy.request_p50_ms", pm (fun a b -> hist_delta a b "spp_proxy_request_ms" 0.5));
              ("proxy.upstream_p50_ms", pm (fun a b -> hist_delta a b "spp_proxy_upstream_ms" 0.5));
              ("proxy.upstream_p99_ms", pm (fun a b -> hist_delta a b "spp_proxy_upstream_ms" 0.99)) ] })
  in
  (* Latency, SLO, quality and CPU pool the rounds' open-loop samples and
     throughput averages the rounds' closed loops, so every novel
     instance of the run counts; set-up, memory and the server-side
     quantiles are medians over the rounds. *)
  let counts = List.fold_left (fun acc r -> Outcome.sum acc r.counts) Outcome.zero results in
  let open_pairs = List.concat_map (fun r -> r.pairs) results in
  let lat = List.filter_map (fun (s, c) -> if valid c then Some (Load.latency_ms s) else None) open_pairs in
  let n_open = List.length open_pairs in
  let within =
    List.length (List.filter (fun (s, c) -> c.cls = Outcome.Ok_ && Load.latency_ms s <= spec.slo_ms) open_pairs)
  in
  let qualities = List.filter_map (fun (_, c) -> c.quality) open_pairs in
  let attempted = float_of_int (Outcome.attempted counts) in
  let sum f = List.fold_left (fun a r -> a +. f r) 0.0 results in
  let pooled =
    [ ("latency_p50_ms", Outcome.percentile 50.0 lat); ("latency_p95_ms", Outcome.percentile 95.0 lat);
      ("throughput_rps", Spp_util.Stats.mean (List.map (fun r -> r.closed_rate) results));
      ("slo_attainment", ratio (float_of_int within) (float_of_int n_open));
      ("quality_ratio", (match qualities with [] -> 0.0 | q -> Spp_util.Stats.geometric_mean q));
      (* CPU per op over the open loops: under the closed loop's full load,
         spin-waiting runtimes make CPU time follow the scheduler more than
         the work *)
      ("cpu_ms_per_op", ratio (sum (fun r -> r.open_cpu_ms)) (sum (fun r -> float_of_int r.open_ops)));
      ("latency_p99_ms", Outcome.percentile 99.0 lat);
      ("loadgen.lag_p99_ms", Outcome.percentile 99.0 (List.map (fun (s, _) -> Load.lag_ms s) open_pairs));
      ("error_ratio", ratio (float_of_int (Outcome.errors counts)) attempted);
      ("degraded_ratio", ratio (float_of_int counts.Outcome.degraded) attempted);
      ("open_loop.requests", float_of_int n_open) ]
    @ median_by_key (List.map (fun r -> r.per_round) results)
  in
  (* Live traces, pooled over the rounds (traced runs only). *)
  let trees =
    List.filter_map
      (fun ((s : Load.sample), c) ->
        Option.bind c.trace (fun j ->
            Option.map (client_tree ~dur:(s.Load.fin -. s.Load.sent)) (Spans.root_of_trace j)))
      open_pairs
  in
  let client_ms, parts, unattributed = attribution trees in
  if trees <> [] then
    note "trace attribution over %d traced requests (ms): client p50 %.3f = %s; unattributed %.1f%%"
      (List.length trees) client_ms
      (String.concat " + " (List.map (fun (k, v) -> Printf.sprintf "%s %.3f" k v) parts))
      unattributed;
  let valid_pairs = List.filter (fun (_, c) -> valid c) open_pairs in
  let traced_lat, untraced_lat = List.partition (fun ((s : Load.sample), _) -> traced s.Load.idx) valid_pairs in
  let p50_of l = Outcome.median (List.map (fun (s, _) -> Load.latency_ms s) l) in
  let proxy_roots =
    List.filter_map
      (fun (t : Spans.node) ->
        match t.Spans.children with [ r ] when r.Spans.name = "proxy" -> Some r | _ -> None)
      trees
  in
  let trace_values =
    [ ("trace_overhead_pct",
        if traced_lat = [] || untraced_lat = [] then 0.0
        else 100.0 *. ((p50_of traced_lat /. p50_of untraced_lat) -. 1.0));
      ("trace.unattributed_pct", unattributed);
      ("server.wire_ms",
        Outcome.median (List.map (fun (t : Spans.node) -> Spans.length t -. Spans.length (List.hd t.Spans.children)) trees));
      (* route: when the proxy decided (parse, fingerprint, cache probe) *)
      ("proxy.route_us",
        1000.0
        *. Outcome.median
             (List.filter_map
                (fun r ->
                  Option.map (fun (c : Spans.node) -> c.Spans.start -. r.Spans.start) (Spans.find_child "route" r))
                proxy_roots));
      ("proxy.coalesce_wait_ms", Outcome.median (List.concat_map (Spans.durations "coalesce.wait") proxy_roots));
      ("proxy.self_ms", Outcome.median (List.map Spans.self_ms proxy_roots)) ]
  in
  (* In-process replay of a fixed prefix of the request sequence. *)
  let replay_values, counters, replay_trees =
    if not cfg.replay then ([], [], [])
    else begin
      let sample =
        List.filteri (fun i _ -> i < spec.replay_n) drawn |> List.map (fun (_, id) -> (id, line_of id))
      in
      let engine = Engine.create () in
      List.sort_uniq compare (List.filter_map (fun (id, _) -> if id < novel_base then Some id else None) sample)
      |> List.iter (fun id -> ignore (Engine.solve ~workers:1 ~budget_ms:1000.0 engine (inst_of id).Gen.parsed));
      let r = Replay.run ~engine sample in
      let engine_counts = Replay.engine_counts engine in
      ( Replay.layer_values r @ Replay.race_values r
        @ List.map (fun (k, v) -> (k, float_of_int v)) engine_counts,
        List.map (fun (k, v) -> (k, Json.Int v)) (Replay.word_counts r @ engine_counts),
        List.rev r.Replay.traces )
    end
  in
  let trace_json =
    if not cfg.trace then []
    else
      [ ("live", Json.List (List.map Spans.to_json trees));
        ("replay", Json.List (List.map Spans.to_json (List.filteri (fun i _ -> i < 40) replay_trees)));
        ( "attribution_p50_ms",
          Json.Obj
            ((("client.request", Json.Float client_ms) :: List.map (fun (k, v) -> (k, Json.Float v)) parts)
            @ [ ("unattributed_pct", Json.Float unattributed) ]) ) ]
  in
  note "%d round%s, each on a fresh system: open loop at %.0f/s for %.1f s, closed loop for %.1f s; \
        %d open-loop requests in all; %s"
    rounds (if rounds = 1 then "" else "s") spec.rate (open_ms /. 1000.0) (closed_ms /. 1000.0) n_open
    (Outcome.describe counts);
  { Outcome.values = pooled @ trace_values @ replay_values;
    counts; counters; trace = trace_json; notes = List.rev !notes }
