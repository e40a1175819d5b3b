(* What one workload run produces, and the reply classes of `spp loadgen`:
   ok = valid packing, full answer; degraded = valid packing marked
   budget-cut; invalid = wrong packing or undecodable solve reply; shed =
   overloaded or wont_make_it; failed = any other structured error;
   transport = no protocol-valid reply at all. *)

module Json = Spp_server.Json

type cls = Ok_ | Degraded | Invalid | Shed | Failed | Transport

type counts = { ok : int; degraded : int; invalid : int; shed : int; failed : int; transport : int }

let zero = { ok = 0; degraded = 0; invalid = 0; shed = 0; failed = 0; transport = 0 }

let add c = function
  | Ok_ -> { c with ok = c.ok + 1 }
  | Degraded -> { c with degraded = c.degraded + 1 }
  | Invalid -> { c with invalid = c.invalid + 1 }
  | Shed -> { c with shed = c.shed + 1 }
  | Failed -> { c with failed = c.failed + 1 }
  | Transport -> { c with transport = c.transport + 1 }

let sum a b =
  { ok = a.ok + b.ok; degraded = a.degraded + b.degraded; invalid = a.invalid + b.invalid;
    shed = a.shed + b.shed; failed = a.failed + b.failed; transport = a.transport + b.transport }

let attempted c = c.ok + c.degraded + c.invalid + c.shed + c.failed + c.transport
let errors c = c.invalid + c.shed + c.failed + c.transport

let describe c =
  Printf.sprintf "%d ok, %d degraded, %d invalid, %d shed, %d failed, %d transport" c.ok c.degraded
    c.invalid c.shed c.failed c.transport

type t = {
  values : (string * float) list;  (** every metric this run measured *)
  counts : counts;
  counters : (string * Json.t) list;  (** exact, seed-determined counts *)
  trace : (string * Json.t) list;  (** this workload's part of BENCH_e2e_trace.json *)
  notes : string list;  (** human-readable lines for stdout *)
}

let percentile p = function [] -> 0.0 | l -> Spp_util.Stats.percentile p l
let median l = percentile 50.0 l
