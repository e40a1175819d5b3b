(* `spp_bench compare PARENT CHANGE`: judge a change against its parent
   from two sets of saved runs (each file is one run's stdout), metric by
   metric and workload by workload.

   Gain rule: the change wins at least 9 of 10 seed-matched pairs (ties
   count for neither) and the medians differ by more than the parent's
   interquartile spread. A metric whose relative spread exceeds its
   bound is unresolved unless every change run beats every parent run.
   An end-to-end metric regresses when the change's median is worse than
   the parent's by more than its bound. *)

module Json = Spp_server.Json

(* Python's statistics.quantiles(data, n=4) with the default
   'exclusive' method: (Q1, median, Q3). *)
let quartiles values =
  let d = Array.of_list (List.sort compare values) in
  let ld = Array.length d in
  if ld = 0 then invalid_arg "quartiles: no data";
  if ld = 1 then (d.(0), d.(0), d.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)

type spec = { higher_is_better : bool; bound : float option  (** [None] for per-layer *) }

type verdict = Improved | Regressed | Unchanged | Unresolved

let verdict_to_string = function
  | Improved -> "improved"
  | Regressed -> "regressed"
  | Unchanged -> "unchanged"
  | Unresolved -> "unresolved"

type row = {
  parent_q : float * float * float;
  change_q : float * float * float;
  wins : int;
  pairs : int;
  verdict : verdict;
}

(* [judge spec pairs] over (parent, change) values of one metric. *)
let judge spec pairs =
  let better a b = if spec.higher_is_better then a > b else a < b in
  let parent = List.map fst pairs and change = List.map snd pairs in
  let ((p1, pm, p3) as parent_q) = quartiles parent in
  let change_q = quartiles change in
  let _, cm, _ = change_q in
  let wins = List.length (List.filter (fun (p, c) -> better c p) pairs) in
  let losses = List.length (List.filter (fun (p, c) -> better p c) pairs) in
  let n = List.length pairs in
  let iqr = p3 -. p1 in
  let gain = if spec.higher_is_better then cm -. pm else pm -. cm in
  let all_beat = List.for_all (fun c -> List.for_all (fun p -> better c p) parent) change in
  let spread = if pm = 0.0 then 0.0 else iqr /. Float.abs pm in
  let verdict =
    match spec.bound with
    | Some bound when spread > bound -> if all_beat then Improved else Unresolved
    | _ when 10 * wins >= 9 * n && gain > iqr -> Improved
    | Some bound when -.gain > bound *. Float.abs pm -> Regressed
    | None when 10 * losses >= 9 * n && -.gain > iqr -> Regressed
    | _ -> Unchanged
  in
  { parent_q; change_q; wins; pairs = n; verdict }

(* ------------------------------------------------------------------ *)
(* Run files *)

type run = { workload : string; seed : int; metrics : (string * float) list }

(* A run file is a run's stdout: a "# workload NAME seed N" line and the
   result object as the last non-empty line. *)
let parse_run text =
  let lines = List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' text) in
  let header =
    List.find_map
      (fun l ->
        match String.split_on_char ' ' (String.trim l) with
        | "#" :: "workload" :: w :: "seed" :: s :: _ -> Option.map (fun s -> (w, s)) (int_of_string_opt s)
        | _ -> None)
      lines
  in
  match (header, List.rev lines) with
  | Some (workload, seed), last :: _ -> (
    match Json.of_string last with
    | Ok j -> (
      match Json.member "metrics" j with
      | Some (Json.Obj kvs) ->
        let metrics =
          List.filter_map
            (fun (k, v) -> Option.map (fun f -> (k, f)) (Option.bind (Json.member "value" v) Json.get_float))
            kvs
        in
        Ok { workload; seed; metrics }
      | _ -> Error "result line has no metrics object")
    | Error e -> Error ("last line is not JSON: " ^ e))
  | None, _ -> Error "no '# workload NAME seed N' line"
  | _, [] -> Error "empty file"

let read_runs dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.filter_map (fun f ->
         let path = Filename.concat dir f in
         if Sys.is_directory path then None
         else
           match parse_run (In_channel.with_open_bin path In_channel.input_all) with
           | Ok r -> Some r
           | Error e ->
             Printf.eprintf "skipping %s: %s\n" path e;
             None)

(* Metric directions and bounds from BENCHMARK.json. *)
let specs_of_benchmark j =
  let read key ~bounded =
    match Json.member key j with
    | Some (Json.List l) ->
      List.filter_map
        (fun m ->
          match (Option.bind (Json.member "name" m) Json.get_string, Option.bind (Json.member "better" m) Json.get_string) with
          | Some name, Some better ->
            let bound = if bounded then Option.bind (Json.member "bound" m) Json.get_float else None in
            Some (name, { higher_is_better = better = "higher"; bound })
          | _ -> None)
        l
    | _ -> []
  in
  read "end_to_end" ~bounded:true @ read "per_layer" ~bounded:false

(* Pair parent and change runs of one workload by seed. *)
let pair_runs parent change =
  List.filter_map
    (fun p -> Option.map (fun c -> (p, c)) (List.find_opt (fun c -> c.seed = p.seed) change))
    parent

let min_pairs = 10

(* Rows for every (workload, metric) measured on both sides. *)
let rows specs parent change =
  let workloads = List.sort_uniq compare (List.map (fun r -> r.workload) parent) in
  List.concat_map
    (fun w ->
      let mine = List.filter (fun r -> r.workload = w) in
      let pairs = pair_runs (mine parent) (mine change) in
      List.filter_map
        (fun (name, spec) ->
          let values =
            List.filter_map
              (fun (p, c) ->
                match (List.assoc_opt name p.metrics, List.assoc_opt name c.metrics) with
                | Some a, Some b -> Some (a, b)
                | _ -> None)
              pairs
          in
          if values = [] then None else Some (w, name, spec, judge spec values))
        specs)
    workloads

let print_rows rows =
  Printf.printf "%-14s %-26s %-34s %-34s %-6s %s\n" "workload" "metric" "parent median [q1, q3]"
    "change median [q1, q3]" "wins" "verdict";
  List.iter
    (fun (w, name, _, r) ->
      let q (a, b, c) = Printf.sprintf "%.5g [%.5g, %.5g]" b a c in
      Printf.printf "%-14s %-26s %-34s %-34s %-6s %s\n" w name (q r.parent_q) (q r.change_q)
        (Printf.sprintf "%d/%d" r.wins r.pairs) (verdict_to_string r.verdict))
    rows

(* Exit status: 0 when nothing regressed, 1 on an end-to-end
   regression, 2 on bad input (including fewer than ten pairs). *)
let main ~benchmark ~parent_dir ~change_dir =
  match Json.of_string (In_channel.with_open_bin benchmark In_channel.input_all) with
  | Error e ->
    Printf.eprintf "cannot read %s: %s\n" benchmark e;
    2
  | Ok j ->
    let specs = specs_of_benchmark j in
    let parent = read_runs parent_dir and change = read_runs change_dir in
    let rs = rows specs parent change in
    let short =
      List.filter (fun (_, _, _, r) -> r.pairs < min_pairs) rs
      |> List.map (fun (w, _, _, _) -> w) |> List.sort_uniq compare
    in
    if rs = [] then begin
      prerr_endline "no metric measured on both sides";
      2
    end
    else if short <> [] then begin
      Printf.eprintf "need at least %d seed-matched runs per side; short: %s\n" min_pairs
        (String.concat ", " short);
      2
    end
    else begin
      print_rows rs;
      if List.exists (fun (_, _, s, r) -> s.bound <> None && r.verdict = Regressed) rs then 1 else 0
    end
