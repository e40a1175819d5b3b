module Client = Spp_server.Client
module Framing = Spp_server.Framing

type t = {
  addr : Framing.address;
  name : string;
  timeout_ms : float option;
  pool_size : int;
  mu : Mutex.t;
  mutable idle : Client.t list;
  mutable closed : bool;
}

let default_pool_size = 2

let create ?(pool_size = default_pool_size) ?timeout_ms addr =
  { addr; name = Framing.address_to_string addr; timeout_ms; pool_size;
    mu = Mutex.create (); idle = []; closed = false }

let name t = t.name
let address t = t.addr

let idle t =
  Mutex.lock t.mu;
  let n = List.length t.idle in
  Mutex.unlock t.mu;
  n

let checkout t =
  Mutex.lock t.mu;
  let c = match t.idle with c :: rest -> t.idle <- rest; Some c | [] -> None in
  Mutex.unlock t.mu;
  c

let checkin t c =
  Mutex.lock t.mu;
  let park = (not t.closed) && List.length t.idle < t.pool_size in
  if park then t.idle <- c :: t.idle;
  Mutex.unlock t.mu;
  if not park then Client.close c

let fault_probe () =
  try Spp_util.Fault.hit "proxy.upstream"
  with Spp_util.Fault.Injected p ->
    raise (Client.Error { kind = Client.Io; attempts = 1; message = "fault injected: " ^ p })

(* One request on a connection we just made: any failure here is real. *)
let call_fresh ?timeout_ms t req =
  let c = Client.connect ?timeout_ms:t.timeout_ms t.addr in
  match Client.request ?timeout_ms c req with
  | r -> checkin t c; r
  | exception e -> Client.close c; raise e

let call ?timeout_ms t req =
  fault_probe ();
  match checkout t with
  | None -> call_fresh ?timeout_ms t req
  | Some c -> (
    match Client.request ?timeout_ms c req with
    | r -> checkin t c; r
    | exception Client.Error _ ->
      (* The parked connection may just have been stale (backend restart,
         idle reap). One fresh attempt distinguishes that from a down
         backend. *)
      Client.close c;
      call_fresh ?timeout_ms t req
    | exception e -> Client.close c; raise e)

let close t =
  Mutex.lock t.mu;
  let conns = t.idle in
  t.idle <- [];
  t.closed <- true;
  Mutex.unlock t.mu;
  List.iter Client.close conns
