module Log = Spp_obs.Log
module Field = Spp_obs.Field

type t = {
  domains : unit Domain.t list;
  deaths : int Atomic.t;
  restarts : int Atomic.t;
}

exception Pool_dead

let default_max_restarts = 16

let start ?(max_restarts = default_max_restarts) ~on_crash ~workers f q =
  let workers = max 1 workers in
  let deaths = Atomic.make 0 in
  let restarts = Atomic.make 0 in
  let live = Atomic.make workers in  (* slots not yet out of budget *)
  let crash job exn = try on_crash job exn with _ -> () in
  (* If every slot has exhausted its restart budget, nobody will ever pop
     again: close the queue (new pushes shed at admission) and fail any
     queued jobs so their clients get an answer instead of a hang. *)
  let slot_down () =
    if Atomic.fetch_and_add live (-1) = 1 && not (Bqueue.is_closed q) then begin
      Log.error "worker pool dead: all restart budgets exhausted"
        [ ("workers", Field.Int workers) ];
      Bqueue.close q;
      let rec drain () =
        match Bqueue.pop q with
        | None -> ()
        | Some job ->
          crash job Pool_dead;
          drain ()
      in
      drain ()
    end
  in
  (* One domain per slot pops until the queue drains. A job that raises
     (or a pool.job fault) fails its own job via [crash]; the slot then
     goes on in place within its budget — nothing in the domain needs a
     fresh one — or, out of budget, retires. *)
  let slot i () =
    let rec loop spent =
      match Bqueue.pop q with
      | None -> ()
      | Some job -> (
        match
          Spp_util.Fault.hit "pool.job";
          f job
        with
        | () -> loop spent
        | exception exn ->
          crash job exn;
          Atomic.incr deaths;
          if Bqueue.is_closed q && Bqueue.length q = 0 then ()
          else if spent < max_restarts then begin
            Atomic.incr restarts;
            Log.warn "worker crashed; slot restarted"
              [ ("slot", Field.Int i); ("error", Field.String (Printexc.to_string exn));
                ("restarts_left", Field.Int (max_restarts - spent - 1)) ];
            loop (spent + 1)
          end
          else begin
            Log.error "worker slot out of restart budget"
              [ ("slot", Field.Int i); ("error", Field.String (Printexc.to_string exn)) ];
            slot_down ()
          end)
    in
    loop 0
  in
  { domains = List.init workers (fun i -> Domain.spawn (slot i)); deaths; restarts }

let deaths t = Atomic.get t.deaths
let restarts t = Atomic.get t.restarts
let join t = List.iter Domain.join t.domains
