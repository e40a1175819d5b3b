module Client = Spp_server.Client
module Framing = Spp_server.Framing
module Listener = Spp_server.Listener
module Front = Spp_server.Front
module Bqueue = Spp_server.Bqueue
module Deadline = Spp_util.Deadline
module Protocol = Spp_server.Protocol
module Lru = Spp_engine.Lru
module Fingerprint = Spp_engine.Fingerprint
module Io = Spp_core.Io
module Clock = Spp_util.Clock
module Prng = Spp_util.Prng
module Metrics = Spp_obs.Metrics
module Trace = Spp_obs.Trace
module Log = Spp_obs.Log
module Field = Spp_obs.Field

type hedge_policy = Hedge_off | Hedge_auto | Hedge_fixed of float

type config = {
  address : Framing.address;
  backends : Framing.address list;
  replicas : int;
  cache_capacity : int;
  pool_size : int;
  upstream_timeout_ms : float option;
  failover : int;
  probe_interval_ms : float;
  fail_after : int;
  revive_after : int;
  registry : Metrics.t;
  seed : int;
  hedge : hedge_policy;
  breaker_window : int;
  breaker_threshold : int;
  breaker_cooldown_ms : float;
  idle_timeout_ms : float option;
  read_timeout_ms : float option;
}

let default_config ~address ~backends () =
  { address; backends; replicas = Ring.default_replicas; cache_capacity = 512;
    pool_size = Upstream.default_pool_size; upstream_timeout_ms = Some 5_000.0;
    failover = 2; probe_interval_ms = 1_000.0; fail_after = 3; revive_after = 2;
    registry = Metrics.create (); seed = 0; hedge = Hedge_off;
    breaker_window = Breaker.default_window; breaker_threshold = Breaker.default_threshold;
    breaker_cooldown_ms = Breaker.default_cooldown_ms; idle_timeout_ms = Some 30_000.0;
    read_timeout_ms = Some 10_000.0 }

(* Auto-hedging needs enough latency history to know what "slow" means,
   and must never hedge at microsecond scale just because the backends
   are fast. *)
let hedge_auto_min_samples = 32
let hedge_auto_floor_ms = 25.0

(* Per-backend health state. [fails]/[oks] count *consecutive* outcomes;
   both are guarded by the proxy's [health_mu]. The breaker carries its
   own lock — it is consulted on the request path where taking
   [health_mu] would serialize attempts. *)
type backend = {
  up : Upstream.t;
  brk : Breaker.t;
  mutable alive : bool;
  mutable fails : int;
  mutable oks : int;
}

type instruments = {
  reg : Metrics.t;
  m_coalesced : Metrics.counter;
  m_cache_hits : Metrics.counter;
  m_cache_misses : Metrics.counter;
  m_upstream_ms : Metrics.histogram;
  m_hedges : Metrics.counter;
  m_hedge_wins : Metrics.counter;
  m_deadline_rejects : Metrics.counter;
}

type t = {
  cfg : config;
  backends : backend array;
  by_name : (string, backend) Hashtbl.t;
  health_mu : Mutex.t;  (* guards [ring] and every backend's health fields *)
  mutable ring : Ring.t;  (* live members only *)
  cache : Protocol.solve_reply Lru.t option;
  texts : string Lru.t option;
      (* Digest.string of a request's instance text -> fingerprint, in
         front of [cache] and sized like it *)
  coalesce : Protocol.response Coalesce.t;
  listener : Listener.t;
  front : Front.t;
  mx : instruments;
}

let stopping t = Listener.stopping t.listener

(* ------------------------------------------------------------------ *)
(* Health and ring membership *)

let live_names_locked t =
  Array.to_list t.backends
  |> List.filter_map (fun b -> if b.alive then Some (Upstream.name b.up) else None)

let live_backends t =
  Mutex.lock t.health_mu;
  let names = live_names_locked t in
  Mutex.unlock t.health_mu;
  List.sort String.compare names

let current_ring t =
  Mutex.lock t.health_mu;
  let r = t.ring in
  Mutex.unlock t.health_mu;
  r

let count_membership t name metric =
  Metrics.incr
    (Metrics.counter t.mx.reg ~labels:[ ("backend", name) ] metric)

(* One observation of backend [b]: [ok] from a probe or from live
   traffic. Flips liveness on the configured consecutive streaks and
   rebuilds the ring when membership changes. *)
let note_result t b ok =
  Mutex.lock t.health_mu;
  let change =
    if ok then
      if b.alive then (b.fails <- 0; `None)
      else begin
        b.oks <- b.oks + 1;
        if b.oks >= t.cfg.revive_after then begin
          b.alive <- true;
          b.fails <- 0;
          b.oks <- 0;
          `Readmitted
        end
        else `None
      end
    else if b.alive then begin
      b.fails <- b.fails + 1;
      if b.fails >= t.cfg.fail_after then begin
        b.alive <- false;
        b.oks <- 0;
        `Evicted
      end
      else `None
    end
    else (b.oks <- 0; `None)
  in
  if change <> `None then
    t.ring <- Ring.create ~replicas:t.cfg.replicas (live_names_locked t);
  let live = Ring.size t.ring in
  Mutex.unlock t.health_mu;
  let name = Upstream.name b.up in
  match change with
  | `None -> ()
  | `Evicted ->
    count_membership t name "spp_proxy_evictions_total";
    Log.warn "backend evicted from ring"
      [ ("backend", Field.String name); ("live", Field.Int live) ]
  | `Readmitted ->
    count_membership t name "spp_proxy_readmissions_total";
    Log.info "backend readmitted to ring"
      [ ("backend", Field.String name); ("live", Field.Int live) ]

let probe_backend t b =
  let ok =
    try
      Spp_util.Fault.hit "proxy.health";
      match
        Client.with_connection ~timeout_ms:t.cfg.probe_interval_ms
          (Upstream.address b.up)
          (fun c -> Client.request c Protocol.Health)
      with
      | Protocol.Health_ok _ -> true
      | _ -> false
    with Spp_util.Fault.Injected _ | Client.Error _ -> false
  in
  if not ok then
    count_membership t (Upstream.name b.up) "spp_proxy_probe_failures_total";
  note_result t b ok

let prober_loop t =
  let rng = Prng.create t.cfg.seed in
  let base = t.cfg.probe_interval_ms in
  let cap = base *. 4.0 in
  let prev = ref base in
  (* Sleep in short slices so a drain is noticed within ~50 ms. *)
  let rec nap ms =
    if ms > 0.0 && not (stopping t) then begin
      Unix.sleepf (Float.min 0.05 (ms /. 1000.0));
      nap (ms -. 50.0)
    end
  in
  while not (stopping t) do
    Array.iter (fun b -> if not (stopping t) then probe_backend t b) t.backends;
    let any_down =
      Mutex.lock t.health_mu;
      let d = Array.exists (fun b -> not b.alive) t.backends in
      Mutex.unlock t.health_mu;
      d
    in
    (* Decorrelated jitter between cycles keeps a fleet of proxies from
       probing in lockstep; while anything is down we pin to the base
       interval so readmission never waits on a stretched sleep. *)
    let s =
      if any_down then base
      else Float.min cap (Prng.float_in rng base (Float.max base (!prev *. 3.0)))
    in
    prev := s;
    nap s
  done

(* ------------------------------------------------------------------ *)
(* Upstream solve with ring walk *)

let count_upstream t backend outcome =
  Metrics.incr
    (Metrics.counter t.mx.reg ~help:"Upstream solve attempts by backend and outcome"
       ~labels:[ ("backend", backend); ("outcome", outcome) ] "spp_proxy_requests_total")

let observe_upstream t backend ms =
  Metrics.observe t.mx.m_upstream_ms ms;
  Metrics.observe
    (Metrics.histogram t.mx.reg ~labels:[ ("backend", backend) ] "spp_proxy_upstream_ms")
    ms

let no_backend_error t message =
  Protocol.Error
    { code = Protocol.Overloaded; message;
      retry_after_ms = Some (int_of_float t.cfg.probe_interval_ms) }

(* How long to let the leading attempt run before re-issuing the solve
   to the next candidate. [None] = hedging off (policy off, or auto
   without enough latency history yet). *)
let hedge_delay_ms t =
  match t.cfg.hedge with
  | Hedge_off -> None
  | Hedge_fixed ms -> Some ms
  | Hedge_auto -> (
    match Metrics.find_histogram t.mx.reg "spp_proxy_upstream_ms" with
    | Some h when h.Metrics.total >= hedge_auto_min_samples ->
      Some (Float.max hedge_auto_floor_ms (Metrics.hist_quantile h 0.99))
    | Some _ | None -> None)

(* What one concluded attempt means for the walk: [Win] answers the
   client now; [Next] fails over, optionally remembering a backend-state
   reply so "every candidate is sick" surfaces the last real reply (with
   its own retry hint) rather than a synthetic one. *)
type verdict = Win of Protocol.response | Next of Protocol.response option

(* One upstream attempt, with every side effect it owns: the breaker
   gate, metrics, health notes, the trace span (named [hedge] for a
   hedged re-issue) and the graft of the backend's returned span tree.
   The request is (re-)encoded here so a hedged launch carries the
   deadline {e remaining at launch time}, not at walk start — and the
   same remainder bounds the reply wait, which is also what reins in a
   losing attempt server-side after its rival already answered. *)
let run_attempt t ~instance ~budget_ms ~deadline ~algos ~trace ~hedged b =
  let name = Upstream.name b.up in
  if not (Breaker.allow b.brk) then begin
    count_upstream t name "breaker_open";
    Next None
  end
  else begin
    let req =
      Protocol.Solve
        { instance; budget_ms; deadline_ms = Option.map Deadline.forward_ms deadline;
          algos; trace_id = Option.map Trace.id trace }
    in
    let timeout_ms =
      match (deadline, t.cfg.upstream_timeout_ms) with
      | None, _ -> None
      | Some d, None -> Some (Deadline.remaining_ms d)
      | Some d, Some pt -> Some (Float.min pt (Deadline.remaining_ms d))
    in
    let attempt () =
      let call () = Upstream.call ?timeout_ms b.up req in
      match trace with
      | None -> call ()
      | Some tr ->
        Trace.with_span tr ~parent:(Trace.root tr)
          (if hedged then "hedge" else "upstream")
          (fun s ->
            Trace.add_fields tr s [ ("backend", Field.String name) ];
            match call () with
            | Protocol.Solve_ok ({ trace = Some j; _ } as r) ->
              (* Graft the backend's tree under this span, rebased onto
                 the proxy's timeline at the moment the upstream call
                 began, then drop the raw field — the stitched tree
                 supersedes it. *)
              Option.iter
                (fun imp -> Trace.graft tr ~parent:s ~offset_ms:(Trace.start_ms s) imp)
                (Trace.import j);
              Protocol.Solve_ok { r with Protocol.trace = None }
            | other -> other)
    in
    let t0 = Clock.now_ms () in
    match attempt () with
    | Protocol.Solve_ok _ as r ->
      observe_upstream t name (Clock.elapsed_ms t0);
      count_upstream t name "ok";
      note_result t b true;
      Breaker.record b.brk ~ok:true;
      Win r
    | Protocol.Error
        { code = Protocol.Overloaded | Protocol.Shutting_down | Protocol.Internal; _ } as r
      ->
      count_upstream t name "failed";
      note_result t b true;
      Breaker.record b.brk ~ok:true;
      Next (Some r)
    | Protocol.Error _ as r ->
      (* Instance-specific rejection: every backend would say the same. *)
      count_upstream t name "rejected";
      note_result t b true;
      Breaker.record b.brk ~ok:true;
      Win r
    | _other ->
      count_upstream t name "failed";
      note_result t b true;
      Breaker.record b.brk ~ok:true;
      Next
        (Some
           (Protocol.Error
              { code = Protocol.Internal;
                message = "backend sent a non-solve reply to a solve";
                retry_after_ms = None }))
    | exception Client.Error { kind; message; _ } ->
      count_upstream t name "transport";
      note_result t b false;
      Breaker.record b.brk ~ok:false;
      Log.warn "upstream call failed"
        [ ("backend", Field.String name);
          ("kind", Field.String (Client.kind_to_string kind));
          ("error", Field.String message) ];
      Next None
  end

(* Walk [fp]'s ring successors, first to answer wins. Backend-state
   errors (overloaded / shutting_down / internal) fail over like
   transport errors but are remembered. With hedging on, a candidate
   that is merely {e slow} also triggers failover: after [hedge_delay]
   with no verdict the next candidate is launched in parallel and the
   first reply wins — the loser is abandoned (its thread drains into an
   unread mailbox; its propagated deadline bounds the work it can still
   cost a backend). *)
let upstream_solve t ~fp ~instance ~budget_ms ~deadline ~algos ~trace =
  let candidates =
    let ring = current_ring t in
    let rec take n = function
      | [] -> []
      | _ when n <= 0 -> []
      | x :: tl -> x :: take (n - 1) tl
    in
    take (t.cfg.failover + 1) (Ring.successors ring fp)
  in
  let run ~hedged name =
    run_attempt t ~instance ~budget_ms ~deadline ~algos ~trace ~hedged
      (Hashtbl.find t.by_name name)
  in
  let give_up last =
    match last with
    | Some r -> r
    | None ->
      no_backend_error t
        (if candidates = [] then "no live backend"
         else "all candidate backends unreachable")
  in
  match hedge_delay_ms t with
  | None ->
    (* Sequential: each candidate concludes before the next is tried. *)
    let rec walk last = function
      | [] -> give_up last
      | name :: rest -> (
        match run ~hedged:false name with
        | Win r -> r
        | Next None -> walk last rest
        | Next (Some r) -> walk (Some r) rest)
    in
    walk None candidates
  | Some delay -> (
    match candidates with
    | [] -> give_up None
    | first :: _ ->
      (* Concluded verdicts arrive through a mailbox sized for every
         candidate, so a loser's late push never blocks its thread. *)
      let mailbox = Bqueue.create ~capacity:(List.length candidates) in
      let launch ~hedged name =
        ignore
          (Thread.create
             (fun () -> ignore (Bqueue.try_push mailbox (hedged, run ~hedged name)))
             ())
      in
      launch ~hedged:false first;
      (* [outstanding] attempts are in flight; [pending] candidates are
         not yet launched. The hedge timer only runs while both are
         non-trivial: a verdict-concluded failover launches immediately,
         and with nothing left to launch we just wait out the leader. *)
      let rec collect ~outstanding ~pending ~last =
        if outstanding = 0 then (
          match pending with
          | [] -> give_up last
          | name :: pending ->
            launch ~hedged:false name;
            collect ~outstanding:1 ~pending ~last)
        else begin
          let timeout_ms = if pending = [] then 60_000.0 else delay in
          match Bqueue.pop_within mailbox ~timeout_ms with
          | Some (hedged, Win r) ->
            if hedged then Metrics.incr t.mx.m_hedge_wins;
            r
          | Some (_, Next remembered) ->
            let last = match remembered with Some _ -> remembered | None -> last in
            collect ~outstanding:(outstanding - 1) ~pending ~last
          | None -> (
            match pending with
            | [] -> collect ~outstanding ~pending ~last
            | name :: pending -> (
              (* The leader is slow. [proxy.hedge] suppresses exactly
                 this re-issue — the chaos hook for "the hedge did not
                 help" — after which the candidate is gone for good. *)
              match Spp_util.Fault.hit "proxy.hedge" with
              | () ->
                Metrics.incr t.mx.m_hedges;
                launch ~hedged:true name;
                collect ~outstanding:(outstanding + 1) ~pending ~last
              | exception Spp_util.Fault.Injected _ ->
                collect ~outstanding ~pending ~last))
        end
      in
      collect ~outstanding:1 ~pending:(List.tl candidates) ~last:None)

(* ------------------------------------------------------------------ *)
(* Request handling *)

let snoop t fp = function
  | Protocol.Solve_ok r when not r.Protocol.degraded ->
    (* A replayed trace would be a lie — cache the reply without it.
       Degraded replies are never snooped at all: they are one budget's
       best effort, and replaying one to a caller with a roomier
       deadline would silently pin the cluster at the degraded answer. *)
    Option.iter
      (fun lru -> Lru.add lru fp { r with Protocol.trace_id = None; trace = None })
      t.cache
  | _ -> ()

(* The client asked for a trace: embed the proxy's stitched tree in the
   reply. Taken before the root closes (the reply write belongs to the
   requester's side of the timeline); {!Trace.tree} leaves the open root
   without an ["ms"] field. *)
let embed_trace trace (r : Protocol.solve_reply) =
  { r with Protocol.trace = Option.map Trace.tree trace }

(* The instance's fingerprint. Bytes seen before map straight to it
   through the text index; only unknown text is parsed (raising [Failure]
   when it does not parse) and fingerprinted, then remembered. *)
let fingerprint_of t instance =
  let parse () = Fingerprint.parsed (Io.parse_string instance) in
  match t.texts with
  | None -> parse ()
  | Some texts -> (
    let key = Digest.string instance in
    match Lru.find texts key with
    | Some fp -> fp
    | None ->
      let fp = parse () in
      Lru.add texts key fp;
      fp)

let handle_solve t ~instance ~budget_ms ~deadline_ms ~algos ~trace_id =
  (* Pin the propagated deadline to the proxy's clock at receipt: routing,
     the cache probe, coalescing and the upstream wait all count against
     it, and each upstream launch forwards only what then remains. *)
  let deadline = Deadline.of_request deadline_ms in
  let trace = Option.map (fun id -> Trace.create ~id ~name:"proxy" ()) trace_id in
  if stopping t then
    ( Protocol.Error
        { code = Protocol.Shutting_down; message = "proxy is draining"; retry_after_ms = None },
      trace )
  else
    match fingerprint_of t instance with
    | exception Failure msg ->
      ( Protocol.Error { code = Protocol.Bad_instance; message = msg; retry_after_ms = None },
        trace )
    | fp ->
      let cached =
        match t.cache with
        | None -> None
        | Some lru ->
          let hit = Lru.find lru fp in
          Metrics.incr (if hit = None then t.mx.m_cache_misses else t.mx.m_cache_hits);
          hit
      in
      Option.iter
        (fun tr ->
          let s = Trace.span tr ~parent:(Trace.root tr) "route" in
          Trace.finish
            ~fields:
              [ ("fingerprint", Field.String fp);
                ("cache", Field.String (if cached = None then "miss" else "hit")) ]
            tr s)
        trace;
      (match cached with
       | Some r ->
         (* A warm hit is served whatever the deadline says — the answer
            is already in hand, and instantly beats "won't make it". *)
         ( Protocol.Solve_ok
             (embed_trace trace { r with Protocol.source = "cache.proxy"; trace_id }),
           trace )
       | None
         when (match deadline with Some d -> Deadline.expired d | None -> false) ->
         (* Nothing cached and no time left to ask a backend: fast-fail
            here rather than burn an upstream call on a reply the client
            will never wait for. *)
         Metrics.incr t.mx.m_deadline_rejects;
         ( Protocol.Error
             { code = Protocol.Wont_make_it; message = "deadline exhausted at the proxy";
               retry_after_ms = Some (int_of_float t.cfg.probe_interval_ms) },
           trace )
       | None ->
         let lead () = upstream_solve t ~fp ~instance ~budget_ms ~deadline ~algos ~trace in
         let outcome =
           match trace with
           | None -> Coalesce.run t.coalesce fp lead
           | Some tr ->
             Trace.with_span tr ~parent:(Trace.root tr) "coalesce.wait" (fun s ->
                 let o = Coalesce.run t.coalesce fp lead in
                 Trace.add_fields tr s
                   [ ( "role",
                       Field.String (match o with `Led _ -> "led" | `Joined _ -> "joined") ) ];
                 o)
         in
         let resp =
           match outcome with
           | `Led (r, _) -> snoop t fp r; r
           | `Joined r -> Metrics.incr t.mx.m_coalesced; r
         in
         let resp =
           match resp with
           | Protocol.Solve_ok r ->
             Protocol.Solve_ok (embed_trace trace { r with Protocol.trace_id = trace_id })
           | other -> other
         in
         (resp, trace))

(* The proxy answers [metrics] from its own registry. [workers] reports
   live backends and [queue_length] open coalesced flights — the closest
   cluster analogues of the single-server fields. *)
let metrics t =
  let cache =
    match t.cache with
    | Some lru ->
      let s = Lru.stats lru in
      { Protocol.size = s.Lru.size; capacity = Lru.capacity lru; hits = s.Lru.hits;
        misses = s.Lru.misses; evictions = s.Lru.evictions }
    | None -> { Protocol.size = 0; capacity = 0; hits = 0; misses = 0; evictions = 0 }
  in
  Protocol.Metrics_ok
    { uptime_ms = Front.uptime_ms t.front; counters = Metrics.counters t.mx.reg;
      cache; store_dir = None; workers = List.length (live_backends t);
      queue_length = Coalesce.in_flight t.coalesce; queue_capacity = 0;
      histograms = Protocol.histograms_of t.mx.reg; algos = [] }

let health t =
  Protocol.Health_ok
    { uptime_s = Front.uptime_ms t.front /. 1000.0;
      cache_capacity = (match t.cache with Some lru -> Lru.capacity lru | None -> 0) }

let stop t = Listener.stop t.listener
let wait t = Listener.wait t.listener

(* ------------------------------------------------------------------ *)
(* Lifecycle *)

let instruments reg =
  { reg;
    m_coalesced =
      Metrics.counter reg
        ~help:"Solve requests served by joining another request's in-flight upstream call"
        "spp_proxy_coalesced_total";
    m_cache_hits =
      Metrics.counter reg ~help:"Solve requests answered from the proxy warm cache"
        "spp_proxy_cache_hits_total";
    m_cache_misses =
      Metrics.counter reg ~help:"Solve requests that missed the proxy warm cache"
        "spp_proxy_cache_misses_total";
    m_upstream_ms =
      Metrics.histogram reg ~help:"Upstream solve latency over all backends (ms)"
        "spp_proxy_upstream_ms";
    m_hedges =
      Metrics.counter reg ~help:"Hedged re-issues launched against a second backend"
        "spp_hedges_total";
    m_hedge_wins =
      Metrics.counter reg ~help:"Solves answered by a hedged attempt before the leader"
        "spp_hedge_wins_total";
    m_deadline_rejects =
      Metrics.counter reg ~help:"Solves fast-failed because the propagated deadline ran out"
        ~labels:[ ("stage", "proxy") ] "spp_deadline_rejects_total" }

let start (cfg : config) =
  if cfg.backends = [] then invalid_arg "Proxy.start: no backends";
  if cfg.replicas < 1 then invalid_arg "Proxy.start: replicas must be >= 1";
  if cfg.cache_capacity < 0 then invalid_arg "Proxy.start: cache_capacity must be >= 0";
  if cfg.pool_size < 1 then invalid_arg "Proxy.start: pool_size must be >= 1";
  if cfg.failover < 0 then invalid_arg "Proxy.start: failover must be >= 0";
  if cfg.probe_interval_ms <= 0.0 then
    invalid_arg "Proxy.start: probe_interval_ms must be > 0";
  if cfg.fail_after < 1 then invalid_arg "Proxy.start: fail_after must be >= 1";
  if cfg.revive_after < 1 then invalid_arg "Proxy.start: revive_after must be >= 1";
  (match cfg.hedge with
   | Hedge_fixed ms when ms <= 0.0 -> invalid_arg "Proxy.start: hedge delay must be > 0"
   | Hedge_fixed _ | Hedge_off | Hedge_auto -> ());
  let backends =
    Array.of_list
      (List.map
         (fun addr ->
           { up =
               Upstream.create ~pool_size:cfg.pool_size
                 ?timeout_ms:cfg.upstream_timeout_ms addr;
             brk =
               (* Raises on out-of-range knobs — Breaker validates its own. *)
               Breaker.create ~window:cfg.breaker_window ~threshold:cfg.breaker_threshold
                 ~cooldown_ms:cfg.breaker_cooldown_ms ();
             alive = true; fails = 0; oks = 0 })
         cfg.backends)
  in
  let by_name = Hashtbl.create 8 in
  Array.iter (fun b -> Hashtbl.replace by_name (Upstream.name b.up) b) backends;
  if Hashtbl.length by_name <> Array.length backends then
    invalid_arg "Proxy.start: duplicate backend address";
  let listener = Listener.bind cfg.address in
  (* The proxy keeps the framing layer's line cap and reaps idle and
     trickling clients under its own deadlines. *)
  let front =
    Front.create cfg.registry ~daemon:"proxy" ~prefix:"spp_proxy_" ~ops:"spp_proxy_ops_total"
      { Front.max_line_bytes = Framing.default_max_line; idle_timeout_ms = cfg.idle_timeout_ms;
        read_timeout_ms = cfg.read_timeout_ms; slow_ms = None }
      listener
  in
  let bounded () =
    if cfg.cache_capacity = 0 then None else Some (Lru.create ~capacity:cfg.cache_capacity)
  in
  let t =
    { cfg; backends; by_name; health_mu = Mutex.create ();
      ring =
        Ring.create ~replicas:cfg.replicas
          (Array.to_list backends |> List.map (fun b -> Upstream.name b.up));
      cache = bounded (); texts = bounded ();
      coalesce = Coalesce.create (); listener; front; mx = instruments cfg.registry }
  in
  Metrics.gauge_fn cfg.registry ~help:"Backends currently in the routing ring"
    "spp_proxy_ring_size" (fun () -> float_of_int (Ring.size (current_ring t)));
  Metrics.gauge_fn cfg.registry ~help:"Configured backends, live or not"
    "spp_proxy_backends" (fun () -> float_of_int (Array.length t.backends));
  Metrics.gauge_fn cfg.registry ~help:"Coalesced upstream flights currently open"
    "spp_proxy_inflight_flights" (fun () -> float_of_int (Coalesce.in_flight t.coalesce));
  let length = function Some lru -> float_of_int (Lru.length lru) | None -> 0.0 in
  Metrics.gauge_fn cfg.registry ~help:"Replies in the proxy warm cache"
    "spp_proxy_cache_entries" (fun () -> length t.cache);
  Metrics.gauge_fn cfg.registry ~help:"Entries in the request-text index in front of the warm cache"
    "spp_proxy_text_entries" (fun () -> length t.texts);
  Array.iter
    (fun b ->
      let labels = [ ("backend", Upstream.name b.up) ] in
      Metrics.gauge_fn cfg.registry
        ~help:"Circuit breaker state per backend (0 closed, 1 half-open, 2 open)"
        ~labels "spp_breaker_state"
        (fun () -> Breaker.state_value b.brk);
      Metrics.gauge_fn cfg.registry ~help:"Idle upstream connections parked per backend"
        ~labels "spp_proxy_upstream_idle"
        (fun () -> float_of_int (Upstream.idle b.up)))
    backends;
  let prober = Thread.create (fun () -> prober_loop t) () in
  (* A [shutdown] drains the proxy only — backends belong to whoever
     started them. *)
  let serve = Front.serve front ~health:(fun () -> health t) ~metrics:(fun () -> metrics t) in
  Listener.start listener (serve ~solve:(handle_solve t)) ~drained:(fun () ->
      Thread.join prober;
      Array.iter (fun b -> Upstream.close b.up) t.backends;
      Log.info "proxy drained" []);
  Log.info "proxy listening"
    [ ("address", Field.String (Framing.address_to_string cfg.address));
      ("backends", Field.Int (Array.length backends));
      ("replicas", Field.Int cfg.replicas);
      ("cache_capacity", Field.Int cfg.cache_capacity) ];
  t
