module Q = Spp_num.Rat
module B = Spp_num.Bigint
module Rect = Spp_geom.Rect
module Release = Instance.Release
module Model = Spp_lp.Model
module Simplex = Spp_lp.Simplex
module RM = Spp_lp.Simplex.Exact.Restricted
module Knapsack = Spp_pack.Knapsack

(* Cross-call warm pool: converged configuration pools keyed by the width
   signature (configurations are meaningful only for identical widths). A
   later solve over the same widths seeds its pool with the stored
   configurations, so the first restricted LP already contains the columns
   the previous run had to price — pricing rounds collapse. *)
type warm = { pools : (string, int array list) Hashtbl.t }

let warm_start () = { pools = Hashtbl.create 4 }

let widths_key widths =
  String.concat "," (Array.to_list (Array.map Q.to_string widths))

(* Pricing rounds before giving up, and the largest common width
   denominator the knapsack scales to. *)
let max_rounds = 200
let max_denominator = 100_000

let solve ?(cancel = Spp_util.Cancel.never) ?warm (inst : Release.t) =
  let widths = Array.of_list (Grouping.distinct_widths inst) in
  let releases = Grouping.distinct_releases inst in
  let boundaries =
    match releases with
    | r :: _ when Q.is_zero r -> Array.of_list releases
    | _ -> Array.of_list (Q.zero :: releases)
  in
  let np = Array.length boundaries in
  let nw = Array.length widths in
  let width_index w =
    let rec find i = if Q.equal widths.(i) w then i else find (i + 1) in
    find 0
  in
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
  (* Scale widths to integers over a common denominator for the knapsack. *)
  let denom =
    Array.fold_left
      (fun acc w ->
        let d = Q.den w in
        let g = B.gcd acc d in
        B.div (B.mul acc d) g)
      B.one widths
  in
  let denom =
    match B.to_int_opt denom with
    | Some d when d <= max_denominator -> d
    | _ ->
      failwith
        (Printf.sprintf "Config_colgen.solve: width denominator exceeds %d; use Config_lp"
           max_denominator)
  in
  let scaled_width =
    Array.map (fun w -> B.to_int_exn (Q.floor (Q.mul_int w denom))) widths
  in
  (* Initial pool: one singleton configuration per width, filled to the brim
     (guarantees feasibility of every covering row from round one). *)
  let pool = Hashtbl.create 64 in
  let pool_list = ref [] in
  let pool_size = ref 0 in
  let add_config counts =
    let key = Array.to_list counts in
    if not (Hashtbl.mem pool key) then begin
      Hashtbl.replace pool key ();
      pool_list := counts :: !pool_list;
      incr pool_size;
      true
    end
    else false
  in
  for i = 0 to nw - 1 do
    let counts = Array.make nw 0 in
    counts.(i) <- max 1 (denom / scaled_width.(i));
    ignore (add_config counts)
  done;
  (* Warm pool: configurations a previous solve over the same widths
     converged with. Their columns make the first master near-optimal. *)
  let wkey = widths_key widths in
  (match warm with
   | None -> ()
   | Some w ->
     (match Hashtbl.find_opt w.pools wkey with
      | None -> ()
      | Some configs -> List.iter (fun c -> ignore (add_config (Array.copy c))) configs));
  let tol = 1e-9 in
  (* One warm master per pool epoch: [attempt] builds the restricted LP over
     the whole current pool and hands it to [rounds], which appends priced
     columns to the same master and reoptimises from the incumbent basis.
     A rebuild (new epoch) happens only if the master dropped a redundant
     row, which appended columns cannot safely cross. *)
  let rec attempt round0 =
    let configs0 = Array.of_list (List.rev !pool_list) in
    let nq0 = Array.length configs0 in
    let model = Model.create () in
    let var = Array.make_matrix nq0 np (-1) in
    for q = 0 to nq0 - 1 do
      for j = 0 to np - 1 do
        var.(q).(j) <- Model.add_var model ~name:(Printf.sprintf "x_%d_%d" q j)
      done
    done;
    Model.set_objective model (List.init nq0 (fun q -> (var.(q).(np - 1), Q.one)));
    (* Constraint bookkeeping: row roles map duals back, and the reverse
       maps ([pack_row], [cover_row]) place appended columns' entries. *)
    let row_roles = ref [] in
    let nrows = ref 0 in
    let pack_row = Array.make (max 1 (np - 1)) (-1) in
    let cover_row = Array.make_matrix np nw (-1) in
    for j = 0 to np - 2 do
      let cap = Q.sub boundaries.(j + 1) boundaries.(j) in
      Model.add_constraint model ~name:(Printf.sprintf "pack_%d" j)
        (List.init nq0 (fun q -> (var.(q).(j), Q.one)))
        Model.Le cap;
      pack_row.(j) <- !nrows;
      incr nrows;
      row_roles := `Pack j :: !row_roles
    done;
    for k = 0 to np - 1 do
      for i = 0 to nw - 1 do
        let rhs = ref Q.zero in
        for j = k to np - 1 do
          rhs := Q.add !rhs demand.(i).(j)
        done;
        if Q.sign !rhs > 0 then begin
          let terms = ref [] in
          for j = k to np - 1 do
            for q = 0 to nq0 - 1 do
              let a = configs0.(q).(i) in
              if a > 0 then terms := (var.(q).(j), Q.of_int a) :: !terms
            done
          done;
          Model.add_constraint model ~name:(Printf.sprintf "cover_%d_%d" k i) !terms Model.Ge !rhs;
          cover_row.(k).(i) <- !nrows;
          incr nrows;
          row_roles := `Cover (k, i) :: !row_roles
        end
      done
    done;
    let row_roles = Array.of_list (List.rev !row_roles) in
    let rm =
      match RM.create model with
      | `Optimal rm -> rm
      | `Infeasible | `Unbounded -> assert false (* see Config_lp *)
    in
    (* Appended (counts, phase) pairs, newest first; the master's solution
       lists their values after the nq0 * np model variables. *)
    let appended = ref [] in
    let read_duals () =
      let duals = RM.duals rm in
      let pack_dual = Array.make np Q.zero in
      let cover_dual = Array.make_matrix np nw Q.zero in
      Array.iteri
        (fun row role ->
          match role with
          | `Pack j -> pack_dual.(j) <- duals.(row)
          | `Cover (k, i) -> cover_dual.(k).(i) <- duals.(row))
        row_roles;
      (pack_dual, cover_dual)
    in
    (* Column for configuration [counts] in phase [j]: objective 1 only in
       the last phase; coefficient 1 in its packing row; coefficient
       counts.(i) in every covering row (k, i) with k <= j that exists. *)
    let append_column counts j =
      let obj = if j = np - 1 then Q.one else Q.zero in
      let entries = ref [] in
      if j <= np - 2 then entries := (pack_row.(j), Q.one) :: !entries;
      for k = 0 to j do
        for i = 0 to nw - 1 do
          let r = cover_row.(k).(i) in
          if r >= 0 && counts.(i) > 0 then entries := (r, Q.of_int counts.(i)) :: !entries
        done
      done;
      match RM.add_column rm ~obj ~entries:!entries with
      | `Added ->
        appended := (counts, j) :: !appended;
        true
      | `Needs_rebuild -> false
    in
    let finish () =
      let objective = RM.objective rm in
      let solution = RM.solution rm in
      let occurrences = ref [] in
      for q = 0 to nq0 - 1 do
        for j = 0 to np - 1 do
          let x = solution.(var.(q).(j)) in
          if Q.sign x > 0 then
            occurrences := { Config_lp.counts = configs0.(q); phase = j; height = x } :: !occurrences
        done
      done;
      List.iteri
        (fun a (counts, j) ->
          let x = solution.((nq0 * np) + a) in
          if Q.sign x > 0 then
            occurrences := { Config_lp.counts; phase = j; height = x } :: !occurrences)
        (List.rev !appended);
      let occurrences =
        List.stable_sort
          (fun (a : Config_lp.occurrence) b -> compare a.Config_lp.phase b.Config_lp.phase)
          (List.rev !occurrences)
      in
      (match warm with
       | None -> ()
       | Some w -> Hashtbl.replace w.pools wkey (List.rev_map Array.copy !pool_list));
      {
        Config_lp.widths;
        boundaries;
        lp_value = objective;
        fractional_height = Q.add boundaries.(np - 1) objective;
        occurrences;
        num_configs = !pool_size;
      }
    in
    let rec rounds n =
      Spp_util.Cancel.check cancel;
      Spp_obs.Profile.add_colgen_rounds 1;
      if n >= max_rounds then
        failwith "Config_colgen.solve: round limit exhausted before convergence";
      (* Pricing: column (q, j) has reduced cost
           c_j - pack_dual_j - sum_i a_iq * (sum_{k<=j} cover_dual_{k,i}).
         Maximise the knapsack part per phase. *)
      let pack_dual, cover_dual = read_duals () in
      let acc = Array.make nw 0.0 in
      let fresh = ref [] in
      for j = 0 to np - 1 do
        for i = 0 to nw - 1 do
          acc.(i) <- acc.(i) +. Q.to_float cover_dual.(j).(i)
        done;
        let items =
          Array.to_list
            (Array.mapi
               (fun i w ->
                 { Knapsack.weight = scaled_width.(i); value = acc.(i);
                   bound = denom / max 1 w })
               scaled_width)
        in
        let best, counts = Knapsack.solve ~capacity:denom items in
        let c_j = if j = np - 1 then 1.0 else 0.0 in
        let threshold = c_j -. Q.to_float pack_dual.(j) in
        if best > threshold +. tol then
          if add_config counts then begin
            (* Priced columns only — the initial singleton pool is not
               generation work. *)
            Spp_obs.Profile.add_colgen_columns 1;
            fresh := counts :: !fresh
          end
      done;
      match List.rev !fresh with
      | [] -> finish ()
      | fresh_configs ->
        let ok =
          List.for_all
            (fun counts ->
              let rec phases j = j >= np || (append_column counts j && phases (j + 1)) in
              phases 0)
            fresh_configs
        in
        if not ok then attempt (n + 1)
        else begin
          (match RM.reoptimize rm with
           | `Optimal -> ()
           | `Unbounded -> assert false);
          rounds (n + 1)
        end
    in
    rounds round0
  in
  attempt 0
