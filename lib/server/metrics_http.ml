module Expo = Spp_obs.Expo
module Log = Spp_obs.Log

type t = Listener.t

let http_response ~status ~content_type body =
  Printf.sprintf
    "HTTP/1.1 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
    status content_type (String.length body) body

let write_all fd s =
  let n = String.length s in
  let rec go off = if off < n then go (off + Unix.write_substring fd s off (n - off)) in
  try go 0 with Unix.Unix_error _ -> ()

(* One request per connection, on the connection's own listener thread:
   scrapers send a small GET and read the reply. A 2 s budget — on the
   monotonic clock, so a stepped wall clock can neither hang nor
   prematurely kill a scrape — bounds how long a stuck peer holds that
   thread. The listener closes [fd]. *)
let handle registry fd =
  let deadline = Spp_util.Clock.now_ms () +. 2_000.0 in
  let reader = Framing.reader ~max_line_bytes:8192 fd in
  let next_line () =
    let left = deadline -. Spp_util.Clock.now_ms () in
    if left <= 0.0 then None
    else
      match Framing.read_line ~idle_timeout_ms:left ~read_timeout_ms:left reader with
      | line -> line
      | exception Framing.Timeout -> None
  in
  let request_line = next_line () in
  (* Drain headers until the blank line (or the budget) so the peer's
     send completes; a peer that stalls mid-headers no longer blocks. *)
  let rec drain_headers () =
    match next_line () with
    | Some s when String.trim s <> "" -> drain_headers ()
    | _ -> ()
  in
  (match request_line with
   | None -> ()
   | Some line ->
     (try drain_headers () with Framing.Line_too_long | Unix.Unix_error _ | Sys_error _ -> ());
     let reply =
       match String.split_on_char ' ' line with
       | "GET" :: path :: _ when path = "/metrics" || path = "/metrics/" ->
         http_response ~status:"200 OK"
           ~content_type:"text/plain; version=0.0.4; charset=utf-8"
           (Expo.render registry)
       | "GET" :: _ ->
         http_response ~status:"404 Not Found" ~content_type:"text/plain"
           "only /metrics is served here\n"
       | _ ->
         http_response ~status:"405 Method Not Allowed" ~content_type:"text/plain"
           "only GET is supported\n"
     in
     write_all fd reply)

let start ?(host = "127.0.0.1") ~port registry =
  let t = Listener.bind (Framing.Tcp (host, port)) in
  Listener.start t (handle registry);
  Log.info "metrics endpoint listening"
    [ ("host", Spp_obs.Field.String host); ("port", Spp_obs.Field.Int (Listener.port t)) ];
  t

let port = Listener.port

(* Minimal scrape client, the inverse of [handle]: one GET, headers
   drained, body read to EOF ([Connection: close] bounds it). Used by
   `spp top` and the live-scrape tests; never raises. *)
let fetch ?(timeout_ms = 2_000.0) ~host ~port () =
  match Framing.connect ~timeout_ms (Framing.Tcp (host, port)) with
  | exception (Unix.Unix_error _ | Failure _ | Framing.Timeout) ->
    Error (Printf.sprintf "connect %s:%d failed" host port)
  | fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        try
          write_all fd
            (Printf.sprintf
               "GET /metrics HTTP/1.1\r\nHost: %s:%d\r\nConnection: close\r\n\r\n" host
               port);
          let deadline = Spp_util.Clock.now_ms () +. timeout_ms in
          let reader = Framing.reader ~max_line_bytes:8192 fd in
          let next_line () =
            let left = deadline -. Spp_util.Clock.now_ms () in
            if left <= 0.0 then None
            else Framing.read_line ~idle_timeout_ms:left ~read_timeout_ms:left reader
          in
          match next_line () with
          | None -> Error "empty reply"
          | Some status when not (String.length status >= 12 &&
                                  String.sub status 9 3 = "200") ->
            Error (Printf.sprintf "scrape failed: %s" (String.trim status))
          | Some _ ->
            let rec drain () =
              match next_line () with
              | Some s when String.trim s <> "" -> drain ()
              | _ -> ()
            in
            drain ();
            (* The exposition body is itself line-framed text. *)
            let buf = Buffer.create 4096 in
            let rec body () =
              match next_line () with
              | Some line ->
                Buffer.add_string buf line;
                Buffer.add_char buf '\n';
                body ()
              | None -> ()
            in
            body ();
            Ok (Buffer.contents buf)
        with
        | Framing.Timeout -> Error "scrape timed out"
        | Framing.Line_too_long -> Error "scrape reply line too long"
        | Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
        | Sys_error m -> Error m)

let stop t =
  Listener.stop t;
  Listener.wait t
