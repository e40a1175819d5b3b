type t = {
  address : Framing.address;
  fd : Unix.file_descr;
  port : int;
  stopping : bool Atomic.t;
  lock : Mutex.t;  (* guards [conns]; held while a connection fd closes *)
  conns : (Unix.file_descr, Thread.t) Hashtbl.t;  (* open connections only *)
  mutable acceptor : Thread.t option;
}

let bind address =
  Signals.ignore_sigpipe ();
  let fd = Framing.listen address in
  let port = match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | Unix.ADDR_UNIX _ -> 0 in
  { address; fd; port; stopping = Atomic.make false; lock = Mutex.create ();
    conns = Hashtbl.create 16; acceptor = None }

let stop t = Atomic.set t.stopping true
let stopping t = Atomic.get t.stopping
let port t = t.port

let connections t =
  Mutex.lock t.lock;
  let n = Hashtbl.length t.conns in
  Mutex.unlock t.lock;
  n

(* Closing and leaving the table happen under one lock hold, so neither
   the drain's shutdown pass nor a new connection that reuses the
   descriptor number can see a closed descriptor in the table. *)
let serve_conn t fd handle =
  (try handle fd with _ -> ());
  Mutex.lock t.lock;
  (try Unix.close fd with Unix.Unix_error _ -> ());
  Hashtbl.remove t.conns fd;
  Mutex.unlock t.lock

let drain t drained =
  (try Unix.close t.fd with Unix.Unix_error _ -> ());
  (match t.address with
   | Framing.Unix_sock path -> ( try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
   | Framing.Tcp _ -> ());
  Mutex.lock t.lock;
  let open_conns = Hashtbl.fold (fun fd th acc -> (fd, th) :: acc) t.conns [] in
  List.iter
    (fun (fd, _) -> try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ())
    open_conns;
  Mutex.unlock t.lock;
  List.iter (fun (_, th) -> Thread.join th) open_conns;
  drained ()

let accept_loop t drained handle =
  Unix.set_nonblock t.fd;
  while not (Atomic.get t.stopping) do
    match Unix.select [ t.fd ] [] [] 0.05 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | [], _, _ -> ()
    | _ :: _, _, _ -> (
      match Unix.accept ~cloexec:true t.fd with
      | exception
          Unix.Unix_error
            ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR | Unix.ECONNABORTED), _, _) ->
        ()
      | exception Unix.Unix_error (e, _, _) ->
        (* Out of descriptors or buffers: the listener stays readable, so
           back off a tick rather than spin. *)
        Spp_obs.Log.warn "accept failed" [ ("error", Spp_obs.Field.String (Unix.error_message e)) ];
        Thread.delay 0.05
      | conn, _ ->
        (* Registered under the lock, so the handler cannot leave the
           table before it has entered it. *)
        Mutex.lock t.lock;
        Hashtbl.replace t.conns conn (Thread.create (fun () -> serve_conn t conn handle) ());
        Mutex.unlock t.lock)
  done;
  drain t drained

let start ?(drained = ignore) t handle =
  t.acceptor <- Some (Thread.create (fun () -> accept_loop t drained handle) ())

let wait t = Option.iter Thread.join t.acceptor
