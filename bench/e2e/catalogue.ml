(* Every metric the benchmark reports, with its unit and direction. The
   untraced run prints all of [end_to_end], the traced run all of
   [per_layer], for every workload; BENCHMARK.json lists the same names
   (test_bench checks the two agree). A per-layer metric whose layer a
   workload does not exercise reads 0. *)

type metric = { name : string; unit_ : string; higher_is_better : bool }

let m ?(higher = false) name unit_ = { name; unit_; higher_is_better = higher }

let end_to_end =
  [ m "latency_p50_ms" "ms"; m "slo_attainment" "share" ~higher:true; m "quality_ratio" "ratio";
    m "setup_s" "s"; m "peak_rss_mb" "MB" ]

let algos = [ "bb"; "order"; "aptas"; "shelf"; "dc"; "f"; "pff"; "wave"; "ls" ]

let per_layer =
  [ (* end to end, but too unsteady on a shared 2-core machine to gate *)
    m "throughput_rps" "1/s" ~higher:true; m "cpu_ms_per_op" "ms";
    (* harness *)
    m "latency_p95_ms" "ms"; m "latency_p99_ms" "ms"; m "loadgen.lag_p99_ms" "ms"; m "trace_overhead_pct" "%";
    m "trace.unattributed_pct" "%"; m "error_ratio" "share"; m "degraded_ratio" "share";
    m "open_loop.requests" "count";
    (* server: Framing, Protocol/Json *)
    m "framing.read_us" "us"; m "framing.write_us" "us"; m "protocol.decode_us" "us";
    m "protocol.decode_words" "words"; m "protocol.encode_us" "us"; m "protocol.encode_words" "words";
    (* server: Server, Bqueue, Pool *)
    m "server.queue_wait_p50_ms" "ms"; m "server.queue_wait_p99_ms" "ms";
    m "server.request_p50_ms" "ms"; m "server.wire_ms" "ms"; m "server.shed" "count";
    m "server.degraded" "count";
    (* core: Io *)
    m "io.parse_us" "us"; m "io.parse_words" "words"; m "io.placement_encode_us" "us";
    m "io.placement_encode_words" "words";
    (* engine: Fingerprint, Lower_bounds, Lru, Store *)
    m "fingerprint.us" "us"; m "fingerprint.words" "words"; m "lower_bounds.us" "us";
    m "engine.hit_us" "us"; m "engine.hit_words" "words";
    m "engine.cache_hit_ratio" "share" ~higher:true; m "engine.evictions" "count";
    m "store.writes" "count";
    (* engine: race, Portfolio *)
    m "engine.race_ms_p50" "ms"; m "engine.incumbent_ms_p50" "ms"; m "engine.validate_ms_p50" "ms" ]
  @ List.map (fun a -> m ("engine.algo_ms." ^ a) "ms") algos
  @ [ (* exact, lp, core.Config_colgen *)
      m "normal_bb.nodes" "count"; m "normal_bb.pruned" "count"; m "normal_bb.dominated" "count";
      m "order_search.nodes" "count"; m "simplex.pivots" "count"; m "colgen.columns" "count";
      m "colgen.rounds" "count";
      (* cluster: Proxy, Ring, Coalesce, Upstream *)
      m "proxy.cache_hit_ratio" "share" ~higher:true; m "proxy.coalesced" "count" ~higher:true;
      m "proxy.request_p50_ms" "ms"; m "proxy.upstream_p50_ms" "ms"; m "proxy.upstream_p99_ms" "ms";
      m "proxy.route_us" "us"; m "proxy.coalesce_wait_ms" "ms"; m "proxy.self_ms" "ms";
      (* offline: core, pack, sim *)
      m "dc.ms" "ms"; m "uniform_f.ms" "ms"; m "aptas.ms" "ms"; m "sim.ms" "ms";
      m "validate.prec_ms" "ms"; m "validate.release_ms" "ms"; m "sim.check_ms" "ms";
      m "offline.words_per_job" "words" ]

type workload = { w_name : string; why : string }

let workloads =
  [ { w_name = "hot_repeat";
      why =
        "repeated task graphs answered from the server's in-memory LRU: framing, JSON, parse, \
         fingerprint, lower bound, queue handoff and encode, no solver" };
    { w_name = "cold_exact";
      why =
        "never-seen small instances: the exact solvers and the portfolio race dominate; writes \
         the LRU past capacity and the disk store on every request" };
    { w_name = "proxy_mixed";
      why =
        "spp proxy in front of spp serve: 98% repeats served from the proxy cache, 2% novel DAGs \
         sent twice at once to exercise coalescing and the upstream path" };
    { w_name = "offline_batch";
      why =
        "the paper's approximation algorithms in-process at large n (DC, F, APTAS colgen, \
         online sim) with their validators; no serving stack" } ]
