module Prng = Spp_util.Prng
module Clock = Spp_util.Clock

type result = Pass | Skip | Fail of string

type 'a arbitrary = {
  generate : Prng.t -> 'a;
  shrink : 'a -> 'a Seq.t;
  print : 'a -> string;
}

type 'a property = {
  name : string;
  doc : string;
  tags : string list;
  check : 'a -> result;
}

type 'a failure = {
  property : string;
  case_seed : int;
  case_index : int;
  original : 'a;
  minimized : 'a;
  message : string;
  shrink_steps : int;
  shrink_tried : int;
}

type 'a report = {
  run_seed : int;
  cases : int;
  checks : int;
  skips : int;
  per_property : (string * int) list;
  failures : 'a failure list;
  elapsed_ms : float;
}

(* A property that raises has been falsified just as surely as one that
   returns Fail: solvers must not crash on valid instances. *)
let eval prop v =
  match prop.check v with
  | r -> r
  | exception e -> Fail (Printf.sprintf "uncaught exception: %s" (Printexc.to_string e))

(* Bounds on the shrink loop: accepted steps, and candidates tried. *)
let max_shrink_steps = 500
let max_shrink_tries = 10_000

let shrink_to_minimum arb prop value =
  let message =
    match eval prop value with
    | Fail msg -> msg
    | Pass | Skip -> invalid_arg "Runner.shrink_to_minimum: value does not fail the property"
  in
  let tried = ref 0 in
  let rec go value message steps =
    if steps >= max_shrink_steps then (value, message, steps)
    else begin
      (* First candidate that still fails wins; Skip and Pass candidates are
         rejected (a shrink must preserve the violation, not just shrink). *)
      let rec first seq =
        if !tried >= max_shrink_tries then None
        else
          match seq () with
          | Seq.Nil -> None
          | Seq.Cons (cand, rest) -> (
            incr tried;
            match eval prop cand with
            | Fail msg -> Some (cand, msg)
            | Pass | Skip -> first rest)
      in
      match first (arb.shrink value) with
      | None -> (value, message, steps)
      | Some (cand, msg) -> go cand msg (steps + 1)
    end
  in
  let minimized, message, steps = go value message 0 in
  (minimized, message, steps, !tried)

let run_cases ~run_seed ~next_seed ~max_cases ?deadline_ms arb props =
  let t0 = Clock.now_ms () in
  let counts = Hashtbl.create 16 in
  let bump name = Hashtbl.replace counts name (1 + Option.value ~default:0 (Hashtbl.find_opt counts name)) in
  let checks = ref 0 and skips = ref 0 and cases = ref 0 in
  let failures = ref [] in
  let active = ref props in
  let expired () =
    match deadline_ms with None -> false | Some d -> Clock.elapsed_ms t0 >= d
  in
  while !cases < max_cases && !active <> [] && not (expired ()) do
    let case_index = !cases in
    let case_seed = next_seed () in
    let value = arb.generate (Prng.create case_seed) in
    active :=
      List.filter
        (fun prop ->
          match eval prop value with
          | Skip ->
            incr skips;
            true
          | Pass ->
            incr checks;
            bump prop.name;
            true
          | Fail _ ->
            incr checks;
            bump prop.name;
            let minimized, message, shrink_steps, shrink_tried =
              shrink_to_minimum arb prop value
            in
            failures :=
              { property = prop.name; case_seed; case_index; original = value; minimized;
                message; shrink_steps; shrink_tried }
              :: !failures;
            false)
        !active;
    incr cases
  done;
  let per_property =
    List.map (fun p -> (p.name, Option.value ~default:0 (Hashtbl.find_opt counts p.name))) props
  in
  {
    run_seed;
    cases = !cases;
    checks = !checks;
    skips = !skips;
    per_property;
    failures = List.sort (fun a b -> compare a.property b.property) !failures;
    elapsed_ms = Clock.elapsed_ms t0;
  }

let run ?(cases = 100) ?deadline_ms ~seed arb props =
  (* A dedicated stream yields each case's replay seed, so case i's value
     depends only on (seed, i) — never on how earlier cases shrank. *)
  let seed_rng = Prng.create seed in
  run_cases ~run_seed:seed
    ~next_seed:(fun () -> Prng.int seed_rng max_int)
    ~max_cases:cases ?deadline_ms arb props

let replay ~case_seed arb props =
  run_cases ~run_seed:case_seed
    ~next_seed:(fun () -> case_seed)
    ~max_cases:1 arb props
