module Clock = Spp_util.Clock
module Metrics = Spp_obs.Metrics
module Field = Spp_obs.Field
module Json = Spp_util.Json

type field = Field.t =
  | String of string
  | Int of int
  | Float of float
  | Bool of bool
  | Json of Json.t

type event = {
  name : string;
  at_ms : float;
  fields : (string * field) list;
}

type t = {
  epoch_ms : float;
  metrics : Metrics.t;
  handles : (string, Metrics.counter) Hashtbl.t;  (* incr-by-name fast path *)
  keep_events : bool;
  mutable events : event list;  (* newest first; stays empty without [keep_events] *)
  lock : Mutex.t;
}

let create ?(events = true) () =
  { epoch_ms = Clock.now_ms ();
    metrics = Metrics.create ();
    handles = Hashtbl.create 16;
    keep_events = events;
    events = [];
    lock = Mutex.create () }

let metrics t = t.metrics

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let record t ~name fields =
  if t.keep_events then begin
    let at_ms = Clock.elapsed_ms t.epoch_ms in
    locked t (fun () -> t.events <- { name; at_ms; fields } :: t.events)
  end

let handle t name =
  locked t (fun () ->
      match Hashtbl.find_opt t.handles name with
      | Some h -> h
      | None ->
        let h = Metrics.counter t.metrics name in
        Hashtbl.replace t.handles name h;
        h)

let incr ?(by = 1) t name = Metrics.incr ~by (handle t name)

let counter t name = Option.value ~default:0 (Metrics.find_counter t.metrics name)

let counters t = Metrics.counters t.metrics

let events t = locked t (fun () -> List.rev t.events)

let time t ~name ~fields f =
  let t0 = Clock.now_ms () in
  let finish outcome =
    record t ~name
      (fields @ [ ("ms", Float (Clock.elapsed_ms t0)); ("outcome", String outcome) ])
  in
  match f () with
  | v ->
    finish "ok";
    v
  | exception e ->
    finish "raised";
    raise e

let to_json_lines t =
  let buf = Buffer.create 1024 in
  let line kvs =
    Buffer.add_string buf (Json.to_string (Json.Obj kvs));
    Buffer.add_char buf '\n'
  in
  List.iter
    (fun e ->
      line
        (("event", Json.String e.name) :: ("t_ms", Field.to_json (Float e.at_ms))
        :: List.map (fun (k, v) -> (k, Field.to_json v)) e.fields))
    (events t);
  List.iter (fun (k, v) -> line [ ("counter", Json.String k); ("value", Json.Int v) ]) (counters t);
  Buffer.contents buf
