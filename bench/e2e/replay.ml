(* In-process replay of a fixed sample of request lines through each
   layer's public functions, timed call by call and with the minor-heap
   words each call allocates. The sample is a prefix of the workload's
   request sequence, independent of the run length, so the word and
   solver counts it produces repeat exactly for a seed and are checked
   against baseline_counters.json. *)

module Framing = Spp_server.Framing
module Protocol = Spp_server.Protocol
module Io = Spp_core.Io
module Q = Spp_num.Rat
module Engine = Spp_engine.Engine
module Trace = Spp_obs.Trace
module Metrics = Spp_obs.Metrics

type layer = { mutable us : float list; mutable words : float; mutable calls : int }

type t = {
  layers : (string, layer) Hashtbl.t;
  mutable traces : Spans.node list;  (** newest first *)
  overhead_words : float;
}

let layer_names =
  [ "framing.write"; "framing.read"; "protocol.decode"; "io.parse"; "fingerprint"; "lower_bounds";
    "engine.hit"; "io.placement_encode"; "protocol.encode" ]

(* The words a measurement itself allocates (boxed clock and counter
   reads), subtracted from every call so counts are the callee's own. *)
let bare () =
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let t1 = Unix.gettimeofday () in
  let w1 = Gc.minor_words () in
  ignore (t1 -. t0);
  w1 -. w0

let create () =
  let layers = Hashtbl.create 16 in
  List.iter (fun n -> Hashtbl.replace layers n { us = []; words = 0.0; calls = 0 }) layer_names;
  ignore (bare ());
  { layers; traces = []; overhead_words = bare () }

let measure t name f =
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let t1 = Unix.gettimeofday () in
  let w1 = Gc.minor_words () in
  let l = Hashtbl.find t.layers name in
  l.us <- ((t1 -. t0) *. 1e6) :: l.us;
  l.words <- l.words +. (w1 -. w0 -. t.overhead_words);
  l.calls <- l.calls + 1;
  r

let lower_bound = function
  | Io.Prec p -> Spp_core.Lower_bounds.prec p
  | Io.Release r -> Spp_core.Lower_bounds.release r

let validate parsed p =
  match parsed with
  | Io.Prec i -> Spp_core.Validate.check_prec i p
  | Io.Release i -> Spp_core.Validate.check_release i p

exception Replay_failed of string

(* [run ~engine sample] replays [(id, line)] pairs. The engine answers a
   repeat from its LRU; the first sight of an id is solved (a miss,
   traced through the engine's own spans) and then replayed as a hit, so
   [engine.hit] always times the hit path. *)
let run ~engine sample =
  let t = create () in
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let rb = Framing.reader b in
  let seen = Hashtbl.create 64 in
  Fun.protect ~finally:(fun () -> Unix.close a; Unix.close b) (fun () ->
      List.iteri
        (fun n (id, line) ->
          let tr = Trace.create ~id:(Printf.sprintf "replay-%d" n) ~name:"replay" () in
          let root = Trace.root tr in
          let span name f = Trace.with_span tr ~parent:root name (fun _ -> measure t name f) in
          span "framing.write" (fun () -> Framing.write_line a line);
          let got =
            match span "framing.read" (fun () -> Framing.read_line rb) with
            | Some l -> l
            | None -> raise (Replay_failed "socketpair closed")
          in
          let instance =
            match span "protocol.decode" (fun () -> Protocol.decode_request got) with
            | Ok (Protocol.Solve { instance; _ }) -> instance
            | Ok _ | Error _ -> raise (Replay_failed "request did not decode as a solve")
          in
          let parsed = span "io.parse" (fun () -> Io.parse_string instance) in
          ignore (span "fingerprint" (fun () -> Spp_engine.Fingerprint.parsed parsed));
          ignore (span "lower_bounds" (fun () -> lower_bound parsed));
          if not (Hashtbl.mem seen id) then begin
            Hashtbl.replace seen id ();
            ignore (Engine.solve ~workers:1 ~budget_ms:1000.0 ~trace:tr engine parsed)
          end;
          (* The hit runs on the frozen clock: a clock read allocates only
             when time has moved since the last one, which would make the
             word count depend on timing. *)
          Spp_util.Clock.freeze ();
          let r =
            Fun.protect ~finally:Spp_util.Clock.thaw (fun () ->
                span "engine.hit" (fun () -> Engine.solve ~workers:1 ~budget_ms:1000.0 engine parsed))
          in
          if r.Engine.source <> Engine.Memory_cache then raise (Replay_failed "repeat missed the LRU");
          let placement = span "io.placement_encode" (fun () -> Io.placement_to_string r.Engine.placement) in
          (* a fixed [time_ms]: the printed length of a measured time would
             make the encoder's allocation vary from run to run *)
          let resp =
            Protocol.Solve_ok
              { winner = r.Engine.winner; source = "cache.memory"; height = Q.to_string r.Engine.height;
                time_ms = 0.25; placement; degraded = false;
                lower_bound = Some (Q.to_string r.Engine.lower_bound);
                gap = Some (Q.to_string r.Engine.gap); trace_id = None; trace = None }
          in
          ignore (span "protocol.encode" (fun () -> Protocol.encode_response resp));
          if Trace.with_span tr ~parent:root "check" (fun _ -> validate parsed r.Engine.placement) <> []
          then raise (Replay_failed "replayed answer failed validation");
          Trace.close tr;
          Option.iter (fun n -> t.traces <- n :: t.traces) (Spans.of_trace tr))
        sample);
  t

(* Per-layer values: median microseconds and mean words per call. *)
let layer_values t =
  List.concat_map
    (fun name ->
      let l = Hashtbl.find t.layers name in
      let words = if l.calls = 0 then 0.0 else l.words /. float_of_int l.calls in
      let key suffix =
        if name = "fingerprint" || name = "lower_bounds" then name ^ "." ^ suffix
        else name ^ "_" ^ suffix
      in
      [ (key "us", Outcome.median l.us); (key "words", words) ])
    layer_names

(* Engine race spans (misses only) aggregated by name. *)
let race_values t =
  let traces = t.traces in
  let med name = Outcome.median (List.concat_map (Spans.durations name) traces) in
  [ ("engine.race_ms_p50", med "race"); ("engine.incumbent_ms_p50", med "incumbent");
    ("engine.validate_ms_p50", med "validate") ]
  @ List.map (fun a -> ("engine.algo_ms." ^ a, med ("algo:" ^ a))) Catalogue.algos

(* Solver work and LRU traffic the replay engine recorded; all of it is a
   pure function of the sample. *)
let engine_counts engine =
  let reg = Spp_engine.Telemetry.metrics (Engine.telemetry engine) in
  let counter name algo =
    Option.value ~default:0 (Metrics.find_counter reg ~labels:[ ("algo", algo) ] name)
  in
  let nodes algo =
    match Metrics.find_histogram reg ~labels:[ ("algo", algo) ] "spp_bb_nodes" with
    | Some h -> int_of_float h.Metrics.sum
    | None -> 0
  in
  let sum name = List.fold_left (fun acc a -> acc + counter name a) 0 Catalogue.algos in
  let s = Engine.cache_stats engine in
  [ ("normal_bb.nodes", nodes "bb"); ("normal_bb.pruned", counter "spp_bb_pruned_total" "bb");
    ("normal_bb.dominated", counter "spp_bb_dominated_total" "bb");
    ("order_search.nodes", nodes "order"); ("simplex.pivots", sum "spp_pivots_total");
    ("colgen.columns", sum "spp_colgen_columns_total"); ("colgen.rounds", sum "spp_colgen_rounds_total");
    ("lru.hits", s.Spp_engine.Lru.hits); ("lru.misses", s.Spp_engine.Lru.misses);
    ("lru.evictions", s.Spp_engine.Lru.evictions) ]

(* Total words per layer over the sample — the exact counts gated by the
   baseline. Framing is left out: its buffer growth depends on how the
   kernel splits reads. *)
let word_counts t =
  List.filter_map
    (fun name ->
      if String.length name >= 7 && String.sub name 0 7 = "framing" then None
      else Some (name ^ ".words", int_of_float (Hashtbl.find t.layers name).words))
    layer_names
