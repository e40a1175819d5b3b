(** A small QCheck-style property runner with counterexample shrinking.

    Why not QCheck itself: the harness must share one seeding discipline
    with every other reproducible artefact in this repository
    (the xoshiro generator in {!Spp_util.Prng}), must expose {e per-case replay
    seeds} that the [spp fuzz] CLI can print, persist and replay, and must
    keep generation and shrinking deterministic across OCaml versions.
    The runner is deliberately tiny: values are generated from an
    {!arbitrary}, each property is evaluated on each value, and the first
    failure per property is greedily shrunk (first failing candidate,
    repeat) to a local minimum.

    Determinism contract: a run is a pure function of [(seed, cases,
    arbitrary, properties)]. Case [i] is generated from its own derived
    [case_seed], so any failure can be reproduced in isolation from just
    that integer — the replay seed printed in failure reports. *)

type result =
  | Pass
  | Skip  (** property not applicable to this value (guards, variants) *)
  | Fail of string  (** human-readable violation description *)

type 'a arbitrary = {
  generate : Spp_util.Prng.t -> 'a;
  shrink : 'a -> 'a Seq.t;  (** candidates, most aggressive first *)
  print : 'a -> string;
}

type 'a property = {
  name : string;  (** e.g. ["sound.dc"] — dot-separated family.algo *)
  doc : string;  (** the theorem or invariant being machine-checked *)
  tags : string list;  (** algorithm names, for [--algos] filtering *)
  check : 'a -> result;
}

type 'a failure = {
  property : string;
  case_seed : int;  (** replay seed: regenerate with [Prng.create case_seed] *)
  case_index : int;  (** position in the run (diagnostic only) *)
  original : 'a;
  minimized : 'a;
  message : string;  (** [Fail] message of the {e minimized} value *)
  shrink_steps : int;  (** successful shrink steps taken *)
  shrink_tried : int;  (** shrink candidates evaluated *)
}

type 'a report = {
  run_seed : int;
  cases : int;  (** values generated *)
  checks : int;  (** property evaluations that returned [Pass] or [Fail] *)
  skips : int;
  per_property : (string * int) list;  (** non-skip evaluations per property *)
  failures : 'a failure list;  (** at most one per property, in name order *)
  elapsed_ms : float;
}

(** [run ~seed arb props] generates values and evaluates every property on
    each. A property that fails is shrunk immediately and excluded from
    the rest of the run (one minimized counterexample per property).

    [cases] (default 100) bounds the number of generated values;
    [deadline_ms] (wall clock, measured on {!Spp_util.Clock}) stops
    generation early — whichever limit is hit first wins. Shrinking
    takes at most 500 steps and tries at most 10_000 candidates. *)
val run :
  ?cases:int ->
  ?deadline_ms:float ->
  seed:int ->
  'a arbitrary ->
  'a property list ->
  'a report

(** [replay ~case_seed arb props] re-runs every property on the single
    value generated from [case_seed] — the deterministic replay of one
    reported failure, with the same shrinking on failure. *)
val replay :
  case_seed:int ->
  'a arbitrary ->
  'a property list ->
  'a report

(** [shrink_to_minimum arb prop value] is the greedy minimisation used on
    failures, exposed for tests: repeatedly replaces [value] with its
    first shrink candidate that still fails [prop]. Returns
    [(minimized, message, steps, tried)].
    @raise Invalid_argument if [prop.check value] does not return [Fail]. *)
val shrink_to_minimum :
  'a arbitrary ->
  'a property ->
  'a ->
  'a * string * int * int
