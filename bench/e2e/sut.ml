(* The system under test: `spp serve` / `spp proxy` child processes built
   from bin/spp.exe, never run in the driver's own runtime. Every run gets
   a fresh scratch directory (socket, disk cache, child logs) under
   [.bench_tmp/] in the working directory; children are killed and the
   directory removed on normal exit, on failure and on SIGINT/SIGTERM. *)

module Framing = Spp_server.Framing
module Protocol = Spp_server.Protocol

let tmp_root = ".bench_tmp"

type child = { pid : int; name : string; log : string }

(* What a signal or exit must clean up. Only the main thread spawns and
   stops children, so plain references suffice (a mutex here could
   deadlock against a signal handler running on the same thread). *)
let live_children : child list ref = ref []
let live_dirs : string list ref = ref []

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (try Sys.readdir path with Sys_error _ -> [||]);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())

let counter = ref 0

(* Relative paths keep socket names far below the 108-byte sun_path
   limit wherever the checkout lives. *)
let fresh_dir () =
  (try Unix.mkdir tmp_root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  incr counter;
  let d = Filename.concat tmp_root (Printf.sprintf "%d-%d" (Unix.getpid ()) !counter) in
  rm_rf d;
  Unix.mkdir d 0o755;
  live_dirs := d :: !live_dirs;
  d

let remove_dir d =
  rm_rf d;
  live_dirs := List.filter (( <> ) d) !live_dirs;
  (try Unix.rmdir tmp_root with Unix.Unix_error _ -> ())

let rec waitpid_retry flags pid =
  try Unix.waitpid flags pid with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry flags pid

(* SIGTERM, a bounded wait for the graceful drain, then SIGKILL; always
   reaped before returning. *)
let kill c =
  live_children := List.filter (fun c' -> c'.pid <> c.pid) !live_children;
  (try Unix.kill c.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. 3.0 in
  let rec wait () =
    match waitpid_retry [ Unix.WNOHANG ] c.pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
      Unix.sleepf 0.01;
      wait ()
    | 0, _ ->
      (try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (waitpid_retry [] c.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ()

let cleanup_all () =
  List.iter kill !live_children;
  List.iter remove_dir !live_dirs

let install_handlers () =
  at_exit cleanup_all;
  let on_signal _ =
    cleanup_all ();
    exit 130
  in
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore

let tail_of_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s ->
    let n = String.length s in
    if n <= 2000 then s else String.sub s (n - 2000) 2000
  | exception Sys_error _ -> ""

exception Sut_failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Sut_failed s)) fmt

(* Children see a pinned worker width (SPP_WORKERS=2) and none of the
   caller's other SPP_* settings, so a stray SPP_FAULTS or SPP_CACHE_DIR
   cannot leak into a measurement. *)
let child_env () =
  Unix.environment () |> Array.to_list
  |> List.filter (fun kv -> not (String.length kv >= 4 && String.sub kv 0 4 = "SPP_"))
  |> (fun l -> "SPP_WORKERS=2" :: l)
  |> Array.of_list

let spawn ~spp ~dir ~name args =
  let log = Filename.concat dir (name ^ ".log") in
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644 in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close out; Unix.close devnull)
      (fun () -> Unix.create_process_env spp (Array.of_list (spp :: args)) (child_env ()) devnull out out)
  in
  let c = { pid; name; log } in
  live_children := c :: !live_children;
  c

let alive c = match waitpid_retry [ Unix.WNOHANG ] c.pid with 0, _ -> true | _ -> false | exception _ -> false

(* Poll [health] until it answers; a child that exits first is a failure
   reported with the tail of its log. *)
let wait_healthy c addr =
  let deadline = Unix.gettimeofday () +. 20.0 in
  let rec go () =
    if not (alive c) then fail "%s exited during start-up:\n%s" c.name (tail_of_file c.log);
    match Spp_server.Client.with_connection ~timeout_ms:1000.0 addr (fun cl ->
              Spp_server.Client.request cl Protocol.Health) with
    | Protocol.Health_ok _ -> ()
    | _ | (exception Spp_server.Client.Error _) ->
      if Unix.gettimeofday () > deadline then fail "%s never answered health" c.name;
      Unix.sleepf 0.005;
      go ()
  in
  go ()

type t = {
  dir : string;
  cache_dir : string;
  serve : child;
  serve_addr : Framing.address;
  proxy : (child * Framing.address) option;
}

(* The address the load goes to: the proxy when there is one. *)
let front t = match t.proxy with Some (_, a) -> a | None -> t.serve_addr

let children t = t.serve :: (match t.proxy with Some (c, _) -> [ c ] | None -> [])

let start ~spp ~with_proxy =
  let dir = fresh_dir () in
  let cache_dir = Filename.concat dir "cache" in
  let sock = Filename.concat dir "serve.sock" in
  let serve =
    spawn ~spp ~dir ~name:"serve"
      [ "serve"; "--socket"; sock; "--workers"; "2"; "--budget-ms"; "1000"; "--cache-dir"; cache_dir ]
  in
  let serve_addr = Framing.Unix_sock sock in
  wait_healthy serve serve_addr;
  let proxy =
    if with_proxy then begin
      let psock = Filename.concat dir "proxy.sock" in
      let p = spawn ~spp ~dir ~name:"proxy" [ "proxy"; "--socket"; psock; "--backend"; "unix:" ^ sock ] in
      let a = Framing.Unix_sock psock in
      wait_healthy p a;
      Some (p, a)
    end
    else None
  in
  { dir; cache_dir; serve; serve_addr; proxy }

let stop t =
  List.iter kill (children t);
  remove_dir t.dir

(* ------------------------------------------------------------------ *)
(* Reading the children from outside: /proc CPU and peak RSS, the
   [metrics] op, and the disk store's entry count. *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* utime + stime in ms; /proc reports clock ticks (USER_HZ = 100 on Linux). *)
let cpu_ms_of_pid pid =
  let s = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let after = String.sub s (String.rindex s ')' + 2) (String.length s - String.rindex s ')' - 2) in
  match String.split_on_char ' ' after with
  | _state :: rest ->
    let nth i = float_of_string (List.nth rest i) in
    (* fields 14 and 15 of stat; [rest] starts at field 4 *)
    (nth 10 +. nth 11) *. 10.0
  | [] -> 0.0

let status_kb pid key =
  let s = read_file (Printf.sprintf "/proc/%s/status" pid) in
  String.split_on_char '\n' s
  |> List.find_map (fun line ->
         match String.index_opt line ':' with
         | Some i when String.sub line 0 i = key ->
           let v = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
           (match String.split_on_char ' ' v with n :: _ -> float_of_string_opt n | [] -> None)
         | _ -> None)
  |> Option.value ~default:0.0

let cpu_ms t = List.fold_left (fun acc c -> acc +. cpu_ms_of_pid c.pid) 0.0 (children t)

let peak_rss_mb t =
  List.fold_left (fun acc c -> acc +. status_kb (string_of_int c.pid) "VmHWM") 0.0 (children t) /. 1024.0

let self_peak_rss_mb () = status_kb "self" "VmHWM" /. 1024.0

let self_cpu_ms () =
  let t = Unix.times () in
  (t.Unix.tms_utime +. t.Unix.tms_stime) *. 1000.0

let store_entries t =
  try
    Sys.readdir t.cache_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".sol")
    |> List.length
  with Sys_error _ -> 0

let metrics addr =
  match
    Spp_server.Client.with_connection ~timeout_ms:5000.0 addr (fun c ->
        Spp_server.Client.request c Protocol.Metrics)
  with
  | Protocol.Metrics_ok m -> m
  | _ -> fail "metrics op answered with something else"
  | exception Spp_server.Client.Error { message; _ } -> fail "metrics op failed: %s" message
