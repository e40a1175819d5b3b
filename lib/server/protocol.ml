module Json = Spp_util.Json

type request =
  | Solve of {
      instance : string;
      budget_ms : float option;
      deadline_ms : float option;
      algos : string list option;
      trace_id : string option;
    }
  | Metrics
  | Health
  | Shutdown

type error_code =
  | Parse
  | Bad_request
  | Bad_instance
  | Overloaded
  | Wont_make_it
  | Shutting_down
  | Internal

type solve_reply = {
  winner : string;
  source : string;
  height : string;
  time_ms : float;
  placement : string;
  degraded : bool;
  lower_bound : string option;
  gap : string option;
  trace_id : string option;
  trace : Json.t option;
}

type cache_stats = { size : int; capacity : int; hits : int; misses : int; evictions : int }

type hist_reply = {
  count : int;
  sum : float;
  p50 : float;
  p90 : float;
  p99 : float;
  buckets : (float * int) list;
}

type algo_reply = { wins : int; solved : int; timeouts : int; invalid : int; failed : int }

type metrics_reply = {
  uptime_ms : float;
  counters : (string * int) list;
  cache : cache_stats;
  store_dir : string option;
  workers : int;
  queue_length : int;
  queue_capacity : int;
  histograms : (string * hist_reply) list;
  algos : (string * algo_reply) list;
}

type health_reply = { uptime_s : float; cache_capacity : int }

type response =
  | Solve_ok of solve_reply
  | Metrics_ok of metrics_reply
  | Health_ok of health_reply
  | Shutdown_ok
  | Error of { code : error_code; message : string; retry_after_ms : int option }

let histograms_of reg =
  let module M = Spp_obs.Metrics in
  List.filter_map
    (fun (s : M.sample) ->
      match s.value with
      | M.Histogram h when s.labels = [] ->
        Some
          ( s.name,
            { count = h.M.total; sum = h.M.sum; p50 = M.hist_quantile h 0.5;
              p90 = M.hist_quantile h 0.9; p99 = M.hist_quantile h 0.99; buckets = h.M.buckets } )
      | _ -> None)
    (M.snapshot reg)

let error_code_to_string = function
  | Parse -> "parse"
  | Bad_request -> "bad_request"
  | Bad_instance -> "bad_instance"
  | Overloaded -> "overloaded"
  | Wont_make_it -> "wont_make_it"
  | Shutting_down -> "shutting_down"
  | Internal -> "internal"

let error_code_of_string = function
  | "parse" -> Some Parse
  | "bad_request" -> Some Bad_request
  | "bad_instance" -> Some Bad_instance
  | "overloaded" -> Some Overloaded
  | "wont_make_it" -> Some Wont_make_it
  | "shutting_down" -> Some Shutting_down
  | "internal" -> Some Internal
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Encoding *)

let opt_string_field name = function
  | Some s -> [ (name, Json.String s) ]
  | None -> []

let encode_request = function
  | Solve { instance; budget_ms; deadline_ms; algos; trace_id } ->
    let fields =
      [ ("op", Json.String "solve"); ("instance", Json.String instance) ]
      @ (match budget_ms with Some b -> [ ("budget_ms", Json.Float b) ] | None -> [])
      @ (match deadline_ms with Some d -> [ ("deadline_ms", Json.Float d) ] | None -> [])
      @ (match algos with
         | Some names -> [ ("algos", Json.List (List.map (fun a -> Json.String a) names)) ]
         | None -> [])
      @ opt_string_field "trace_id" trace_id
    in
    Json.to_string (Json.Obj fields)
  | Metrics -> Json.to_string (Json.Obj [ ("op", Json.String "metrics") ])
  | Health -> Json.to_string (Json.Obj [ ("op", Json.String "health") ])
  | Shutdown -> Json.to_string (Json.Obj [ ("op", Json.String "shutdown") ])

let encode_hist (h : hist_reply) =
  Json.Obj
    [ ("count", Json.Int h.count); ("sum", Json.Float h.sum); ("p50", Json.Float h.p50);
      ("p90", Json.Float h.p90); ("p99", Json.Float h.p99);
      ( "buckets",
        Json.List
          (List.map (fun (le, c) -> Json.List [ Json.Float le; Json.Int c ]) h.buckets) ) ]

let encode_algo (a : algo_reply) =
  Json.Obj
    [ ("wins", Json.Int a.wins); ("solved", Json.Int a.solved);
      ("timeouts", Json.Int a.timeouts); ("invalid", Json.Int a.invalid);
      ("failed", Json.Int a.failed) ]

let encode_response = function
  | Solve_ok r ->
    (* [degraded:false] is the wire default and is omitted, so replies
       from pre-deadline servers and post-deadline ones decode alike. *)
    Json.to_string
      (Json.Obj
         ([ ("ok", Json.Bool true); ("op", Json.String "solve");
            ("winner", Json.String r.winner); ("source", Json.String r.source);
            ("height", Json.String r.height); ("ms", Json.Float r.time_ms);
            ("placement", Json.String r.placement) ]
          @ (if r.degraded then [ ("degraded", Json.Bool true) ] else [])
          @ opt_string_field "lower_bound" r.lower_bound
          @ opt_string_field "gap" r.gap
          @ opt_string_field "trace_id" r.trace_id
          @ (match r.trace with Some t -> [ ("trace", t) ] | None -> [])))
  | Metrics_ok m ->
    Json.to_string
      (Json.Obj
         [ ("ok", Json.Bool true); ("op", Json.String "metrics");
           ("uptime_ms", Json.Float m.uptime_ms);
           ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) m.counters));
           ( "cache",
             Json.Obj
               [ ("size", Json.Int m.cache.size); ("capacity", Json.Int m.cache.capacity);
                 ("hits", Json.Int m.cache.hits); ("misses", Json.Int m.cache.misses);
                 ("evictions", Json.Int m.cache.evictions) ] );
           ("store_dir", match m.store_dir with Some d -> Json.String d | None -> Json.Null);
           ("workers", Json.Int m.workers); ("queue_length", Json.Int m.queue_length);
           ("queue_capacity", Json.Int m.queue_capacity);
           ("histograms", Json.Obj (List.map (fun (k, h) -> (k, encode_hist h)) m.histograms));
           ("algos", Json.Obj (List.map (fun (k, a) -> (k, encode_algo a)) m.algos)) ])
  | Health_ok h ->
    Json.to_string
      (Json.Obj
         [ ("ok", Json.Bool true); ("op", Json.String "health"); ("status", Json.String "ok");
           ("uptime_s", Json.Float h.uptime_s);
           ("cache_capacity", Json.Int h.cache_capacity) ])
  | Shutdown_ok ->
    Json.to_string
      (Json.Obj
         [ ("ok", Json.Bool true); ("op", Json.String "shutdown");
           ("status", Json.String "draining") ])
  | Error { code; message; retry_after_ms } ->
    Json.to_string
      (Json.Obj
         ([ ("ok", Json.Bool false); ("error", Json.String (error_code_to_string code));
            ("message", Json.String message) ]
          @ match retry_after_ms with
            | Some ms -> [ ("retry_after_ms", Json.Int ms) ]
            | None -> []))

(* ------------------------------------------------------------------ *)
(* Decoding *)

let ( let* ) r f = Result.bind r f

let require what = function Some v -> Ok v | None -> Result.Error ("missing or ill-typed " ^ what)

let optional field conv j =
  match Json.member field j with
  | None | Some Json.Null -> Ok None
  | Some v -> (
    match conv v with
    | Some x -> Ok (Some x)
    | None -> Result.Error (Printf.sprintf "ill-typed field %S" field))

let string_list j =
  match Json.get_list j with
  | None -> None
  | Some xs ->
    let rec go acc = function
      | [] -> Some (List.rev acc)
      | x :: tl -> (match Json.get_string x with Some s -> go (s :: acc) tl | None -> None)
    in
    go [] xs

let decode_request line =
  match Json.of_string line with
  | Error msg -> Result.Error ("invalid JSON: " ^ msg)
  | Ok (Json.Obj _ as j) -> (
    let* op = require "field \"op\"" (Option.bind (Json.member "op" j) Json.get_string) in
    match op with
    | "solve" ->
      let* instance =
        require "field \"instance\"" (Option.bind (Json.member "instance" j) Json.get_string)
      in
      let* budget_ms = optional "budget_ms" Json.get_float j in
      let* deadline_ms = optional "deadline_ms" Json.get_float j in
      let* algos = optional "algos" string_list j in
      let* trace_id = optional "trace_id" Json.get_string j in
      Ok (Solve { instance; budget_ms; deadline_ms; algos; trace_id })
    | "metrics" -> Ok Metrics
    | "health" -> Ok Health
    | "shutdown" -> Ok Shutdown
    | other -> Result.Error (Printf.sprintf "unknown op %S" other))
  | Ok _ -> Result.Error "request must be a JSON object"

let int_fields what fields =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | (k, v) :: tl -> (
      match Json.get_int v with
      | Some n -> go ((k, n) :: acc) tl
      | None -> Result.Error ("ill-typed " ^ what))
  in
  go [] fields

let decode_hist j =
  let int f = require ("histogram field \"" ^ f ^ "\"") (Option.bind (Json.member f j) Json.get_int) in
  let flt f = require ("histogram field \"" ^ f ^ "\"") (Option.bind (Json.member f j) Json.get_float) in
  let* count = int "count" in
  let* sum = flt "sum" in
  let* p50 = flt "p50" in
  let* p90 = flt "p90" in
  let* p99 = flt "p99" in
  let* bucket_list =
    require "histogram field \"buckets\"" (Option.bind (Json.member "buckets" j) Json.get_list)
  in
  let* buckets =
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | Json.List [ le; c ] :: tl -> (
        match (Json.get_float le, Json.get_int c) with
        | Some le, Some c -> go ((le, c) :: acc) tl
        | _ -> Result.Error "ill-typed histogram bucket")
      | _ -> Result.Error "ill-typed histogram bucket"
    in
    go [] bucket_list
  in
  Ok { count; sum; p50; p90; p99; buckets }

let decode_algo j =
  let int f = require ("algo field \"" ^ f ^ "\"") (Option.bind (Json.member f j) Json.get_int) in
  let* wins = int "wins" in
  let* solved = int "solved" in
  let* timeouts = int "timeouts" in
  let* invalid = int "invalid" in
  let* failed = int "failed" in
  Ok { wins; solved; timeouts; invalid; failed }

let decode_assoc what decode_one j =
  match j with
  | Json.Obj fields ->
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | (k, v) :: tl ->
        let* x = decode_one v in
        go ((k, x) :: acc) tl
    in
    go [] fields
  | _ -> Result.Error ("ill-typed field \"" ^ what ^ "\"")

let decode_response line =
  match Json.of_string line with
  | Error msg -> Result.Error ("invalid JSON: " ^ msg)
  | Ok (Json.Obj _ as j) -> (
    let* ok = require "field \"ok\"" (Option.bind (Json.member "ok" j) Json.get_bool) in
    if not ok then
      let* code_s =
        require "field \"error\"" (Option.bind (Json.member "error" j) Json.get_string)
      in
      let* code = require "known error code" (error_code_of_string code_s) in
      let message =
        Option.value ~default:"" (Option.bind (Json.member "message" j) Json.get_string)
      in
      let* retry_after_ms = optional "retry_after_ms" Json.get_int j in
      Ok (Error { code; message; retry_after_ms })
    else
      let* op = require "field \"op\"" (Option.bind (Json.member "op" j) Json.get_string) in
      match op with
      | "solve" ->
        let str f = require ("field \"" ^ f ^ "\"") (Option.bind (Json.member f j) Json.get_string) in
        let* winner = str "winner" in
        let* source = str "source" in
        let* height = str "height" in
        let* time_ms = require "field \"ms\"" (Option.bind (Json.member "ms" j) Json.get_float) in
        let* placement = str "placement" in
        let* degraded = optional "degraded" Json.get_bool j in
        let degraded = Option.value ~default:false degraded in
        let* lower_bound = optional "lower_bound" Json.get_string j in
        let* gap = optional "gap" Json.get_string j in
        let* trace_id = optional "trace_id" Json.get_string j in
        let trace =
          match Json.member "trace" j with None | Some Json.Null -> None | Some t -> Some t
        in
        Ok
          (Solve_ok
             { winner; source; height; time_ms; placement; degraded; lower_bound; gap;
               trace_id; trace })
      | "metrics" ->
        let* uptime_ms =
          require "field \"uptime_ms\"" (Option.bind (Json.member "uptime_ms" j) Json.get_float)
        in
        let* counters_obj = require "field \"counters\"" (Json.member "counters" j) in
        let* counters =
          match counters_obj with
          | Json.Obj fields -> int_fields "counter value" fields
          | _ -> Result.Error "ill-typed field \"counters\""
        in
        let* cache_obj = require "field \"cache\"" (Json.member "cache" j) in
        let cint f = require ("cache field \"" ^ f ^ "\"") (Option.bind (Json.member f cache_obj) Json.get_int) in
        let* size = cint "size" in
        let* capacity = cint "capacity" in
        let* hits = cint "hits" in
        let* misses = cint "misses" in
        let* evictions = cint "evictions" in
        let* store_dir = optional "store_dir" Json.get_string j in
        let int f = require ("field \"" ^ f ^ "\"") (Option.bind (Json.member f j) Json.get_int) in
        let* workers = int "workers" in
        let* queue_length = int "queue_length" in
        let* queue_capacity = int "queue_capacity" in
        let* hist_obj = require "field \"histograms\"" (Json.member "histograms" j) in
        let* histograms = decode_assoc "histograms" decode_hist hist_obj in
        let* algos_obj = require "field \"algos\"" (Json.member "algos" j) in
        let* algos = decode_assoc "algos" decode_algo algos_obj in
        Ok
          (Metrics_ok
             { uptime_ms; counters; cache = { size; capacity; hits; misses; evictions };
               store_dir; workers; queue_length; queue_capacity; histograms; algos })
      | "health" ->
        let* uptime_s =
          require "field \"uptime_s\"" (Option.bind (Json.member "uptime_s" j) Json.get_float)
        in
        let* cache_capacity =
          require "field \"cache_capacity\""
            (Option.bind (Json.member "cache_capacity" j) Json.get_int)
        in
        Ok (Health_ok { uptime_s; cache_capacity })
      | "shutdown" -> Ok Shutdown_ok
      | other -> Result.Error (Printf.sprintf "unknown response op %S" other))
  | Ok _ -> Result.Error "response must be a JSON object"
