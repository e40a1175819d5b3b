(* End-to-end benchmark driver. See README.md in this directory.

     spp_bench [--workload W]... [--seed N] [--seconds S] [--trace 0|1]
               [--rounds K] [--check-counters] [--write-counters FILE]
               [--baseline FILE] [--spp PATH]
     spp_bench compare [--benchmark BENCHMARK.json] PARENT_DIR CHANGE_DIR

   Prints each metric of each workload as "# <workload> <metric> <value>
   <unit>" and, as the last line per workload, one JSON object
   {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
   on an untraced run, the per-layer metrics on a traced one. *)

module Json = Spp_server.Json

let usage () =
  prerr_endline
    "usage: spp_bench [--workload W]... [--seed N] [--seconds S] [--trace 0|1] [--rounds K]\n\
    \                 [--check-counters] [--write-counters FILE] [--baseline FILE] [--spp PATH]\n\
    \       spp_bench compare [--benchmark BENCHMARK.json] PARENT_DIR CHANGE_DIR";
  exit 2

type opts = {
  mutable workloads : string list;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable rounds : int;
  mutable check_counters : bool;
  mutable write_counters : string option;
  mutable baseline : string option;
  mutable spp : string option;
}

let parse_args args =
  let o =
    { workloads = []; seed = 1; seconds = 20.0; trace = false; rounds = 5; check_counters = false;
      write_counters = None; baseline = None; spp = None }
  in
  let num conv v = match conv v with Some x -> x | None -> usage () in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: tl ->
      if not (List.exists (fun x -> x.Catalogue.w_name = w) Catalogue.workloads) then begin
        Printf.eprintf "unknown workload %S\n" w;
        exit 2
      end;
      o.workloads <- o.workloads @ [ w ];
      go tl
    | "--seed" :: v :: tl -> o.seed <- num int_of_string_opt v; go tl
    | "--seconds" :: v :: tl ->
      o.seconds <- num float_of_string_opt v;
      if o.seconds <= 0.0 then usage ();
      go tl
    | "--trace" :: ("0" | "1" as v) :: tl -> o.trace <- v = "1"; go tl
    | "--trace" :: tl -> o.trace <- true; go tl
    | "--rounds" :: v :: tl -> o.rounds <- num int_of_string_opt v; go tl
    | "--check-counters" :: tl -> o.check_counters <- true; go tl
    | "--write-counters" :: v :: tl -> o.write_counters <- Some v; go tl
    | "--baseline" :: v :: tl -> o.baseline <- Some v; go tl
    | "--spp" :: v :: tl -> o.spp <- Some v; go tl
    | _ -> usage ()
  in
  go args;
  if o.workloads = [] then o.workloads <- List.map (fun w -> w.Catalogue.w_name) Catalogue.workloads;
  o

(* bin/spp.exe of the same build: ../../bin/spp.exe from this executable. *)
let default_spp () =
  let here = Filename.dirname Sys.executable_name in
  Filename.concat here (Filename.concat ".." (Filename.concat ".." (Filename.concat "bin" "spp.exe")))

let default_baseline = "bench/e2e/baseline_counters.json"

let run_workload o ~spp name =
  let needs_replay = o.trace || o.check_counters || o.write_counters <> None in
  match name with
  | "offline_batch" -> Offline.run ~seed:o.seed ~seconds:o.seconds ~trace:o.trace ~setups:o.rounds
  | _ ->
    let spec =
      match name with
      | "hot_repeat" -> Serving.hot_repeat
      | "cold_exact" -> Serving.cold_exact
      | _ -> Serving.proxy_mixed
    in
    Serving.run
      { Serving.seed = o.seed; seconds = o.seconds; trace = o.trace; replay = needs_replay;
        rounds = o.rounds; spp }
      spec

(* Compare a workload's exact counters with the committed baseline. *)
let counter_mismatches baseline name (counters : (string * Json.t) list) =
  match Option.bind (Json.member "workloads" baseline) (Json.member name) with
  | None -> [ Printf.sprintf "%s: no baseline entry" name ]
  | Some expected ->
    List.filter_map
      (fun (k, v) ->
        match Json.member k expected with
        | Some e when e = v -> None
        | Some e -> Some (Printf.sprintf "%s %s: %s, baseline %s" name k (Json.to_string v) (Json.to_string e))
        | None -> Some (Printf.sprintf "%s %s: %s, not in the baseline" name k (Json.to_string v)))
      counters

let bench args =
  let o = parse_args args in
  let spp = match o.spp with Some p -> p | None -> default_spp () in
  if not (Sys.file_exists spp) then begin
    Printf.eprintf "spp executable not found at %s (build bin/spp.exe, or pass --spp)\n" spp;
    exit 2
  end;
  let baseline =
    if not o.check_counters then None
    else begin
      if o.seed <> 1 then begin
        prerr_endline "--check-counters: the baseline holds seed-1 counts; pass --seed 1";
        exit 2
      end;
      let path = Option.value o.baseline ~default:default_baseline in
      match Json.of_string (In_channel.with_open_bin path In_channel.input_all) with
      | Ok j -> Some j
      | Error e ->
        Printf.eprintf "%s: %s\n" path e;
        exit 2
      | exception Sys_error e ->
        Printf.eprintf "--check-counters: %s (pass --baseline)\n" e;
        exit 2
    end
  in
  Sut.install_handlers ();
  (* A large minor heap keeps the driver's own collections rare while it
     times requests. *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 8 * 1024 * 1024 };
  let metrics = if o.trace then Catalogue.per_layer else Catalogue.end_to_end in
  let all_ok = ref true in
  let measured = Hashtbl.create 64 in
  let counters = ref [] and traces = ref [] in
  List.iter
    (fun name ->
      Printf.printf "# workload %s seed %d seconds %g trace %d\n%!" name o.seed o.seconds
        (if o.trace then 1 else 0);
      let r =
        try run_workload o ~spp name with
        | Sut.Sut_failed msg | Replay.Replay_failed msg ->
          Printf.eprintf "%s: %s\n" name msg;
          exit 2
      in
      List.iter (fun l -> Printf.printf "# %s\n" l) r.Outcome.notes;
      let values =
        List.map
          (fun (m : Catalogue.metric) ->
            let v = List.assoc_opt m.Catalogue.name r.Outcome.values in
            if v <> None then Hashtbl.replace measured m.Catalogue.name ();
            (m, Option.value ~default:0.0 v))
          metrics
      in
      let missing =
        List.filter (fun (m : Catalogue.metric) -> not (List.mem_assoc m.Catalogue.name r.Outcome.values))
          Catalogue.end_to_end
      in
      List.iter
        (fun ((m : Catalogue.metric), v) -> Printf.printf "# %s %s %.6g %s\n" name m.Catalogue.name v m.Catalogue.unit_)
        values;
      let mismatches =
        match baseline with Some b -> counter_mismatches b name r.Outcome.counters | None -> []
      in
      let c = r.Outcome.counts in
      let correct =
        c.Outcome.invalid = 0 && c.Outcome.transport = 0 && mismatches = [] && missing = []
        && Outcome.attempted c > 0
      in
      (* Problems go to stderr too, where they survive a discarded stdout. *)
      if not correct then begin
        all_ok := false;
        List.iter (fun l -> Printf.eprintf "%s: %s\n" name l) r.Outcome.notes;
        List.iter (fun m -> Printf.eprintf "%s: counter mismatch: %s\n" name m) mismatches;
        List.iter (fun (m : Catalogue.metric) -> Printf.eprintf "%s: missing metric %s\n" name m.Catalogue.name) missing
      end;
      counters := (name, Json.Obj r.Outcome.counters) :: !counters;
      if r.Outcome.trace <> [] then traces := (name, Json.Obj r.Outcome.trace) :: !traces;
      print_endline
        (Json.to_string
           (Json.Obj
              [ ("correct", Json.Bool correct); ("attempted", Json.Int (Outcome.attempted c));
                ("failed", Json.Int (Outcome.errors c));
                ( "metrics",
                  Json.Obj
                    (List.map
                       (fun ((m : Catalogue.metric), v) ->
                         (m.Catalogue.name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String m.Catalogue.unit_) ]))
                       values) ) ])))
    o.workloads;
  (* A traced run over every workload must measure each per-layer metric
     somewhere; one measured nowhere has lost its source. *)
  if o.trace && List.length o.workloads = List.length Catalogue.workloads then
    List.iter
      (fun (m : Catalogue.metric) ->
        if not (Hashtbl.mem measured m.Catalogue.name) then begin
          Printf.eprintf "metric %s is measured by no workload\n" m.Catalogue.name;
          all_ok := false
        end)
      Catalogue.per_layer;
  let write path j = Out_channel.with_open_bin path (fun oc -> output_string oc (Json.to_string j ^ "\n")) in
  if !traces <> [] then
    write "BENCH_e2e_trace.json"
      (Json.Obj [ ("seed", Json.Int o.seed); ("workloads", Json.Obj (List.rev !traces)) ]);
  Option.iter
    (fun path -> write path (Json.Obj [ ("seed", Json.Int o.seed); ("workloads", Json.Obj (List.rev !counters)) ]))
    o.write_counters;
  exit (if !all_ok then 0 else 1)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "compare" :: rest ->
    let rec go benchmark = function
      | "--benchmark" :: b :: tl -> go b tl
      | [ parent_dir; change_dir ] -> exit (Compare.main ~benchmark ~parent_dir ~change_dir)
      | _ -> usage ()
    in
    go "BENCHMARK.json" rest
  | args -> bench args
