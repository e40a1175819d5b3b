module Json = Spp_util.Json

type level = Debug | Info | Warn | Error

let severity = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

let level_to_string = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let level_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "debug" -> Some Debug
  | "info" -> Some Info
  | "warn" | "warning" -> Some Warn
  | "error" -> Some Error
  | _ -> None

type state = {
  mutable lvl : level;
  mutable chan : out_channel;
  mutable owns_chan : bool;  (* close on replacement (log files, not stderr) *)
  lock : Mutex.t;
}

let state = { lvl = Info; chan = stderr; owns_chan = false; lock = Mutex.create () }

let locked f =
  Mutex.lock state.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock state.lock) f

let set_level lvl = locked (fun () -> state.lvl <- lvl)
let level () = locked (fun () -> state.lvl)

let replace_chan chan owns =
  locked (fun () ->
      if state.owns_chan then (try close_out state.chan with Sys_error _ -> ());
      state.chan <- chan;
      state.owns_chan <- owns)

let set_channel chan = replace_chan chan false

let set_file path = replace_chan (open_out_gen [ Open_append; Open_creat ] 0o644 path) true

let init_from_env () =
  match Sys.getenv_opt "SPP_LOG" with
  | None -> ()
  | Some s -> (
    match level_of_string s with
    | Some lvl -> set_level lvl
    | None ->
      if String.trim s <> "" then
        Printf.eprintf "warning: ignoring SPP_LOG=%S (want debug|info|warn|error)\n%!" s)

let enabled lvl = severity lvl >= severity state.lvl

let emit lvl msg fields =
  if enabled lvl then begin
    let ts = Float.round (Unix.gettimeofday () *. 1000.0) /. 1000.0 in
    let line =
      Json.to_string
        (Json.Obj
           (("ts", Json.Float ts) :: ("level", Json.String (level_to_string lvl))
           :: ("msg", Json.String msg)
           :: List.map (fun (k, v) -> (k, Field.to_json v)) fields))
      ^ "\n"
    in
    locked (fun () ->
        try
          output_string state.chan line;
          flush state.chan
        with Sys_error _ -> ())
  end

let debug msg fields = emit Debug msg fields
let info msg fields = emit Info msg fields
let warn msg fields = emit Warn msg fields
let error msg fields = emit Error msg fields
