module Q = Spp_num.Rat
module Rect = Spp_geom.Rect
module Release = Instance.Release
module Model = Spp_lp.Model
module Simplex = Spp_lp.Simplex

type occurrence = { counts : int array; phase : int; height : Q.t }

type solved = {
  widths : Q.t array;
  boundaries : Q.t array;
  lp_value : Q.t;
  fractional_height : Q.t;
  occurrences : occurrence list;
  num_configs : int;
}

let enumerate_configs ?(max_configs = 200_000) widths =
  let nw = Array.length widths in
  let found = ref [] in
  let count = ref 0 in
  (* DFS over width indices; widths sorted descending keeps pruning easy. *)
  let counts = Array.make nw 0 in
  let rec go i remaining nonempty =
    if i = nw then begin
      if nonempty then begin
        incr count;
        if !count > max_configs then
          failwith
            (Printf.sprintf "Config_lp.enumerate_configs: more than %d configurations" max_configs);
        found := Array.copy counts :: !found
      end
    end
    else begin
      (* multiplicity 0 first, then 1, 2, ... while capacity remains *)
      go (i + 1) remaining nonempty;
      let rec bump m remaining =
        let remaining = Q.sub remaining widths.(i) in
        if Q.sign remaining >= 0 then begin
          counts.(i) <- m;
          go (i + 1) remaining true;
          bump (m + 1) remaining
        end
        else counts.(i) <- 0
      in
      bump 1 remaining
    end
  in
  go 0 Q.one false;
  List.rev !found

let solve (inst : Release.t) =
  let widths = Array.of_list (Grouping.distinct_widths inst) in
  let releases = Grouping.distinct_releases inst in
  let boundaries =
    match releases with
    | r :: _ when Q.is_zero r -> Array.of_list releases
    | _ -> Array.of_list (Q.zero :: releases)
  in
  let np = Array.length boundaries in (* phases 0 .. np-1; last is unbounded *)
  let nw = Array.length widths in
  let configs = enumerate_configs widths in
  let configs_arr = Array.of_list configs in
  let nq = Array.length configs_arr in
  let width_index w =
    let rec find i = if Q.equal widths.(i) w then i else find (i + 1) in
    find 0
  in
  (* Demand b.(i).(j): total height of width-i tasks released at boundary j. *)
  let demand = Array.make_matrix nw np Q.zero in
  List.iter
    (fun (task : Release.task) ->
      let i = width_index task.Release.rect.Rect.w in
      let j =
        let rec find j = if Q.equal boundaries.(j) task.Release.release then j else find (j + 1) in
        find 0
      in
      demand.(i).(j) <- Q.add demand.(i).(j) task.Release.rect.Rect.h)
    inst.tasks;
  (* Variables x.(q).(j). *)
  let model = Model.create () in
  let var = Array.make_matrix nq np (-1) in
  for q = 0 to nq - 1 do
    for j = 0 to np - 1 do
      var.(q).(j) <- Model.add_var model ~name:(Printf.sprintf "x_%d_%d" q j)
    done
  done;
  (* Objective (3.2): minimise the height used in the final phase. *)
  Model.set_objective model (List.init nq (fun q -> (var.(q).(np - 1), Q.one)));
  (* Packing constraints (3.3) for the bounded phases. *)
  for j = 0 to np - 2 do
    let cap = Q.sub boundaries.(j + 1) boundaries.(j) in
    Model.add_constraint model ~name:(Printf.sprintf "pack_%d" j)
      (List.init nq (fun q -> (var.(q).(j), Q.one)))
      Model.Le cap
  done;
  (* Covering constraints (3.4): suffix capacity >= suffix demand, skipping
     trivially-satisfied rows (zero demand). *)
  for k = 0 to np - 1 do
    for i = 0 to nw - 1 do
      let rhs = ref Q.zero in
      for j = k to np - 1 do
        rhs := Q.add !rhs demand.(i).(j)
      done;
      if Q.sign !rhs > 0 then begin
        let terms = ref [] in
        for j = k to np - 1 do
          for q = 0 to nq - 1 do
            let a = configs_arr.(q).(i) in
            if a > 0 then terms := (var.(q).(j), Q.of_int a) :: !terms
          done
        done;
        Model.add_constraint model ~name:(Printf.sprintf "cover_%d_%d" k i) !terms Model.Ge !rhs
      end
    done
  done;
  match Simplex.Exact.solve model with
  | Simplex.Infeasible | Simplex.Unbounded ->
    (* The LP is always feasible (pack everything after %R) and bounded
       below by 0. *)
    assert false
  | Simplex.Optimal { objective; solution; _ } ->
    let occurrences = ref [] in
    for q = 0 to nq - 1 do
      for j = 0 to np - 1 do
        let x = solution.(var.(q).(j)) in
        if Q.sign x > 0 then
          occurrences := { counts = configs_arr.(q); phase = j; height = x } :: !occurrences
      done
    done;
    let occurrences =
      List.stable_sort (fun a b -> compare a.phase b.phase) (List.rev !occurrences)
    in
    {
      widths;
      boundaries;
      lp_value = objective;
      fractional_height = Q.add boundaries.(np - 1) objective;
      occurrences;
      num_configs = nq;
    }
