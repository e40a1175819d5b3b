type address =
  | Unix_sock of string
  | Tcp of string * int

let address_to_string = function
  | Unix_sock path -> "unix:" ^ path
  | Tcp (host, port) -> Printf.sprintf "tcp:%s:%d" host port

let inet_addr_of host =
  try Unix.inet_addr_of_string host
  with Failure _ -> (
    match Unix.gethostbyname host with
    | { Unix.h_addr_list = [||]; _ } -> raise (Unix.Unix_error (Unix.EINVAL, "gethostbyname", host))
    | { Unix.h_addr_list; _ } -> h_addr_list.(0)
    | exception Not_found -> raise (Unix.Unix_error (Unix.EINVAL, "gethostbyname", host)))

let sockaddr_of = function
  | Unix_sock path -> (Unix.PF_UNIX, Unix.ADDR_UNIX path)
  | Tcp (host, port) -> (Unix.PF_INET, Unix.ADDR_INET (inet_addr_of host, port))

let listen addr =
  let domain, sockaddr = sockaddr_of addr in
  (match addr with
   | Unix_sock path when Sys.file_exists path -> ( try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
   | _ -> ());
  let fd = Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 in
  (try
     if domain = Unix.PF_INET then Unix.setsockopt fd Unix.SO_REUSEADDR true;
     Unix.bind fd sockaddr;
     Unix.listen fd 64
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  fd

exception Timeout

(* Fault probes surface as I/O errors so every existing handler path
   (close the connection, count a transport failure) exercises exactly as
   it would for a real broken socket. *)
let fault_probe point =
  try Spp_util.Fault.hit point
  with Spp_util.Fault.Injected p -> raise (Unix.Unix_error (Unix.EIO, "fault", p))

(* Non-blocking connect + select so an unresponsive peer cannot pin the
   caller for the kernel's (minutes-long) default. *)
let connect_deadline fd sockaddr addr ms =
  Unix.set_nonblock fd;
  (match Unix.connect fd sockaddr with
   | () -> ()
   | exception Unix.Unix_error ((Unix.EINPROGRESS | Unix.EWOULDBLOCK | Unix.EAGAIN), _, _) -> (
     match Unix.select [] [ fd ] [] (Float.max 0.0 ms /. 1000.0) with
     | _, [], _ -> raise Timeout
     | _ -> (
       match Unix.getsockopt_error fd with
       | None -> ()
       | Some err -> raise (Unix.Unix_error (err, "connect", address_to_string addr)))));
  Unix.clear_nonblock fd

let connect ?timeout_ms addr =
  let domain, sockaddr = sockaddr_of addr in
  let fd = Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 in
  (try
     match timeout_ms with
     | None -> Unix.connect fd sockaddr
     | Some ms -> connect_deadline fd sockaddr addr ms
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  fd

(* ------------------------------------------------------------------ *)
(* Line reading *)

exception Line_too_long

type reader = {
  fd : Unix.file_descr;
  max_line : int;
  chunk : Bytes.t;
  acc : Buffer.t;  (** current partial line *)
  mutable queued : string list;  (** complete lines not yet handed out *)
  mutable eof : bool;
  mutable line_start_ms : float option;
      (** monotonic time the current partial line's first byte arrived;
          [None] while [acc] is empty. Anchors the read deadline. *)
}

let default_max_line = 8 * 1024 * 1024

let reader ?(max_line_bytes = default_max_line) fd =
  { fd; max_line = max_line_bytes; chunk = Bytes.create 65536; acc = Buffer.create 256;
    queued = []; eof = false; line_start_ms = None }

let strip_cr line =
  let n = String.length line in
  if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line

let rec split_last acc = function
  | [ x ] -> (List.rev acc, x)
  | x :: tl -> split_last (x :: acc) tl
  | [] -> invalid_arg "split_last"

(* Block until [r.fd] is readable or the deadline (absolute, monotonic
   Clock milliseconds) passes. EINTR retries recompute the remaining time
   from the same deadline, so signals cannot extend it. *)
let wait_readable fd deadline_ms =
  let rec go () =
    let left = (deadline_ms -. Spp_util.Clock.now_ms ()) /. 1000.0 in
    if left <= 0.0 then raise Timeout;
    match Unix.select [ fd ] [] [] left with
    | [], _, _ -> raise Timeout
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let read_line ?idle_timeout_ms ?read_timeout_ms r =
  (* The idle deadline is anchored at call entry: it bounds the wait for
     the *next* line to begin. Once the line's first byte is in [acc], the
     read deadline (anchored at that byte's arrival) takes over, so a
     slow-loris peer trickling one byte per idle-timeout still gets cut. *)
  let idle_deadline =
    Option.map (fun ms -> Spp_util.Clock.now_ms () +. ms) idle_timeout_ms
  in
  let check_len s = if String.length s > r.max_line then raise Line_too_long in
  (* The limit applies to the logical line, i.e. after the optional
     trailing CR is stripped — a CRLF peer gets the same effective
     capacity as an LF one. The partial-line buffer therefore tolerates
     one extra byte (the CR whose LF has not arrived yet). *)
  let check_acc () = if Buffer.length r.acc > r.max_line + 1 then raise Line_too_long in
  let rec go () =
    match r.queued with
    | l :: rest ->
      r.queued <- rest;
      Some l
    | [] ->
      if r.eof then
        if Buffer.length r.acc = 0 then None
        else begin
          let s = strip_cr (Buffer.contents r.acc) in
          Buffer.clear r.acc;
          r.line_start_ms <- None;
          check_len s;
          Some s
        end
      else begin
        (match r.line_start_ms, read_timeout_ms with
         | Some t0, Some ms -> wait_readable r.fd (t0 +. ms)
         | _ -> Option.iter (wait_readable r.fd) idle_deadline);
        fault_probe "framing.read";
        (match Unix.read r.fd r.chunk 0 (Bytes.length r.chunk) with
         | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
         | 0 -> r.eof <- true
         | n -> (
           let data = Bytes.sub_string r.chunk 0 n in
           match String.split_on_char '\n' data with
           | [ only ] ->
             Buffer.add_string r.acc only;
             check_acc ();
             if r.line_start_ms = None && Buffer.length r.acc > 0 then
               r.line_start_ms <- Some (Spp_util.Clock.now_ms ())
           | first :: rest ->
             let complete, partial = split_last [] rest in
             let first_line = strip_cr (Buffer.contents r.acc ^ first) in
             let complete = List.map strip_cr complete in
             Buffer.clear r.acc;
             Buffer.add_string r.acc partial;
             check_len first_line;
             List.iter check_len complete;
             check_acc ();
             (* A fresh partial line starts now; an empty one has no start. *)
             r.line_start_ms <-
               (if Buffer.length r.acc = 0 then None else Some (Spp_util.Clock.now_ms ()));
             r.queued <- first_line :: complete
           | [] -> assert false));
        go ()
      end
  in
  go ()

let write_line fd s =
  fault_probe "framing.write";
  let data = Bytes.of_string (s ^ "\n") in
  let len = Bytes.length data in
  let rec go off =
    if off < len then
      match Unix.write fd data off (len - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0
