module Q = Spp_num.Rat
module B = Spp_num.Bigint
module Prng = Spp_util.Prng
module Rect = Spp_geom.Rect
module I = Spp_core.Instance
module G = Spp_workloads.Generators

type spec =
  | Poisson of float
  | Burst of { burst_len : int; idle_gap : float }

let parse_spec s =
  let err () =
    Error
      (Printf.sprintf
         "bad arrival spec %S (want poisson:RATE or burst:LEN:GAP, e.g. poisson:1.5 or \
          burst:6:2.0)"
         s)
  in
  match String.split_on_char ':' s with
  | [ "poisson"; rate ] -> (
    match float_of_string_opt rate with
    | Some r when r > 0.0 -> Ok (Poisson r)
    | _ -> err ())
  | [ "burst"; len; gap ] -> (
    match (int_of_string_opt len, float_of_string_opt gap) with
    | Some l, Some g when l >= 1 && g > 0.0 -> Ok (Burst { burst_len = l; idle_gap = g })
    | _ -> err ())
  | _ -> err ()

let spec_to_string = function
  | Poisson r -> Printf.sprintf "poisson:%g" r
  | Burst { burst_len; idle_gap } -> Printf.sprintf "burst:%d:%g" burst_len idle_gap

let trace ?(n = 40) ?(k = 8) ~seed spec =
  let rng = Prng.create seed in
  match spec with
  | Poisson rate -> G.poisson_release rng ~n ~k ~h_den:4 ~r_den:2 ~rate
  | Burst { burst_len; idle_gap } ->
    G.bursty_release rng ~n ~k ~h_den:4 ~r_den:2 ~burst_len ~idle_gap

type arrival = { id : int; cols : int; duration : Q.t; release : Q.t }

let of_instance (inst : I.Release.t) =
  let k = inst.I.Release.k in
  let widened = ref 0 in
  let arrivals =
    List.map
      (fun (t : I.Release.task) ->
        let scaled = Q.mul_int t.I.Release.rect.Rect.w k in
        let cols =
          let fl = Q.floor scaled in
          if Q.equal (Q.of_bigint fl) scaled then B.to_int_exn fl
          else begin
            incr widened;
            B.to_int_exn (Q.ceil scaled)
          end
        in
        { id = t.I.Release.rect.Rect.id; cols; duration = t.I.Release.rect.Rect.h;
          release = t.I.Release.release })
      inst.I.Release.tasks
  in
  let sorted =
    List.sort
      (fun a b -> match Q.compare a.release b.release with 0 -> compare a.id b.id | c -> c)
      arrivals
  in
  (sorted, !widened)

let pacing rng spec =
  match spec with
  | Poisson rate -> fun () -> Prng.exponential rng ~rate *. 1000.0
  | Burst { burst_len; idle_gap } ->
    let in_burst = ref 0 in
    fun () ->
      if !in_burst > 0 then begin
        decr in_burst;
        0.0
      end
      else begin
        in_burst := burst_len - 1;
        Prng.exponential rng ~rate:(1.0 /. idle_gap) *. 1000.0
      end
