module Clock = Spp_util.Clock
module Metrics = Spp_obs.Metrics
module Trace = Spp_obs.Trace
module Log = Spp_obs.Log
module Field = Spp_obs.Field

type limits = {
  max_line_bytes : int;
  idle_timeout_ms : float option;
  read_timeout_ms : float option;
  slow_ms : float option;
}

(* Handles registered once at [create]; every request touches these, so
   they must not go through the registry's name lookup on the hot path. *)
type t = {
  limits : limits;
  listener : Listener.t;
  reg : Metrics.t;
  ops : string;
  started_ms : float;
  m_connections : Metrics.counter;
  m_bytes_in : Metrics.counter;
  m_bytes_out : Metrics.counter;
  m_request_ms : Metrics.histogram;
  m_request_bytes : Metrics.histogram;
  m_response_bytes : Metrics.histogram;
  m_reaped : Metrics.counter option;  (* only where a deadline can reap *)
}

let create reg ~daemon ~prefix ~ops limits listener =
  let started_ms = Clock.now_ms () in
  Metrics.gauge_fn reg ~help:"Client connections currently open" (prefix ^ "connections_open")
    (fun () -> float_of_int (Listener.connections listener));
  Metrics.gauge_fn reg
    ~help:(Printf.sprintf "Seconds since the %s started" daemon)
    (prefix ^ "uptime_seconds")
    (fun () -> Clock.elapsed_ms started_ms /. 1000.0);
  let sizes help name =
    Metrics.histogram reg ~help ~buckets:Metrics.default_size_buckets (prefix ^ name)
  in
  { limits; listener; reg; ops; started_ms;
    m_connections =
      Metrics.counter reg ~help:"Client connections accepted" (prefix ^ "connections_total");
    m_bytes_in = Metrics.counter reg ~help:"Request bytes read" (prefix ^ "bytes_read_total");
    m_bytes_out =
      Metrics.counter reg ~help:"Response bytes written" (prefix ^ "bytes_written_total");
    m_request_ms =
      Metrics.histogram reg ~help:"Wall-clock per request, receipt to reply (ms)"
        (prefix ^ "request_ms");
    m_request_bytes = sizes "Request line sizes (bytes)" "request_bytes";
    m_response_bytes = sizes "Response line sizes (bytes)" "response_bytes";
    m_reaped =
      (if limits.idle_timeout_ms = None && limits.read_timeout_ms = None then None
       else
         Some
           (Metrics.counter reg
              ~help:"Connections closed for idling or trickling past a deadline"
              (prefix ^ "connections_reaped_total"))) }

let uptime_ms t = Clock.elapsed_ms t.started_ms

let count t op =
  Metrics.incr
    (Metrics.counter t.reg ~help:"Requests received by op" ~labels:[ ("op", op) ] t.ops)

(* The reply to one line, with the request's trace when the solve
   handler made one. *)
let dispatch t ~health ~metrics ~solve line =
  match Protocol.decode_request line with
  | Error msg ->
    count t "invalid";
    (Protocol.Error { code = Protocol.Parse; message = msg; retry_after_ms = None }, None)
  | Ok Protocol.Health ->
    count t "health";
    (health (), None)
  | Ok Protocol.Metrics ->
    count t "metrics";
    (metrics (), None)
  | Ok Protocol.Shutdown ->
    count t "shutdown";
    Log.info "shutdown requested" [];
    Listener.stop t.listener;
    (Protocol.Shutdown_ok, None)
  | Ok (Protocol.Solve { instance; budget_ms; deadline_ms; algos; trace_id }) ->
    count t "solve";
    solve ~instance ~budget_ms ~deadline_ms ~algos ~trace_id

(* Runs once the reply is on the wire, so the root span covers the
   write. *)
let finish_trace t =
  Option.iter (fun tr ->
      Trace.close tr;
      let total = Trace.total_ms tr in
      let fields () =
        [ ("trace_id", Field.String (Trace.id tr)); ("ms", Field.Float total);
          ("trace", Field.Json (Trace.tree tr)) ]
      in
      match t.limits.slow_ms with
      | Some thr when total >= thr -> Log.warn "slow request" (fields ())
      | _ -> if Log.enabled Log.Debug then Log.debug "request" (fields ()))

let serve t ~health ~metrics ~solve fd =
  Metrics.incr t.m_connections;
  let lim = t.limits in
  let reader = Framing.reader ~max_line_bytes:lim.max_line_bytes fd in
  let send ?trace resp =
    let line = Protocol.encode_response resp in
    let span =
      Option.map (fun tr -> (tr, Trace.span tr ~parent:(Trace.root tr) "reply.write")) trace
    in
    let ok =
      try
        Framing.write_line fd line;
        true
      with Unix.Unix_error _ | Sys_error _ -> false
    in
    let n = String.length line + 1 in
    Option.iter (fun (tr, s) -> Trace.finish ~fields:[ ("bytes", Field.Int n) ] tr s) span;
    Metrics.incr ~by:n t.m_bytes_out;
    Metrics.observe t.m_response_bytes (float_of_int n);
    ok
  in
  let rec loop () =
    match
      Framing.read_line ?idle_timeout_ms:lim.idle_timeout_ms
        ?read_timeout_ms:lim.read_timeout_ms reader
    with
    | None -> ()
    | exception Framing.Timeout ->
      (* Idle too long or trickling a request too slowly: reap. *)
      Option.iter Metrics.incr t.m_reaped;
      Log.info "connection reaped" []
    | exception Framing.Line_too_long ->
      ignore
        (send
           (Protocol.Error
              { code = Protocol.Parse;
                message = Printf.sprintf "request exceeds %d bytes" lim.max_line_bytes;
                retry_after_ms = None }))
    | exception (Unix.Unix_error _ | Sys_error _) -> ()
    | Some line when String.trim line = "" ->
      if not (Listener.stopping t.listener) then loop ()
    | Some line ->
      let n = String.length line + 1 in
      Metrics.incr ~by:n t.m_bytes_in;
      Metrics.observe t.m_request_bytes (float_of_int n);
      let t0 = Clock.now_ms () in
      let resp, trace = dispatch t ~health ~metrics ~solve line in
      let written = send ?trace resp in
      finish_trace t trace;
      Metrics.observe t.m_request_ms (Clock.elapsed_ms t0);
      (* After a drain began, finish this (in-flight) reply but take no
         further requests from the connection. *)
      if written && not (Listener.stopping t.listener) then loop ()
  in
  loop ()
