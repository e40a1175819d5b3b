type plan = {
  moves : (int * int) list;
  cells : int;
}

let plan_of residents assignment =
  let moves =
    List.filter_map
      (fun (r : Strip_state.resident) ->
        match List.assoc_opt r.Strip_state.id assignment with
        | Some lo when lo <> r.Strip_state.col_lo -> Some (r.Strip_state.id, lo)
        | _ -> None)
      residents
  in
  let cells =
    List.fold_left
      (fun acc (id, _) ->
        let r = List.find (fun (r : Strip_state.resident) -> r.Strip_state.id = id) residents in
        acc + r.Strip_state.cols)
      0 moves
  in
  { moves; cells }

let greedy strip =
  let residents =
    List.sort
      (fun (a : Strip_state.resident) b ->
        compare (a.Strip_state.col_lo, a.Strip_state.id) (b.Strip_state.col_lo, b.Strip_state.id))
      (Strip_state.residents strip)
  in
  let next = ref 0 in
  let assignment =
    List.map
      (fun (r : Strip_state.resident) ->
        let lo = !next in
        next := !next + r.Strip_state.cols;
        (r.Strip_state.id, lo))
      residents
  in
  plan_of residents assignment

let default_max_residents = 7

let exact ?(max_residents = default_max_residents) strip =
  let residents = Strip_state.residents strip in
  let n = List.length residents in
  if n > max_residents then None
  else if n = 0 then Some { moves = []; cells = 0 }
  else begin
    let k = Strip_state.k strip in
    let free = k - List.fold_left (fun a (r : Strip_state.resident) -> a + r.Strip_state.cols) 0 residents in
    (* Admissible lower bound: in any defragmented layout a resident sits
       at a subset sum of resident widths, shifted by the gap or not. One
       whose current column is at neither kind of position must move. *)
    let sums = Array.make (k + 1) false in
    sums.(0) <- true;
    List.iter
      (fun (r : Strip_state.resident) ->
        for s = k - r.Strip_state.cols downto 0 do
          if sums.(s) then sums.(s + r.Strip_state.cols) <- true
        done)
      residents;
    let reachable lo = sums.(lo) || (free > 0 && lo >= free && sums.(lo - free)) in
    let lower_bound =
      List.fold_left
        (fun acc (r : Strip_state.resident) ->
          if reachable r.Strip_state.col_lo then acc else acc + r.Strip_state.cols)
        0 residents
    in
    let best_cost = ref max_int in
    let best_assignment = ref [] in
    let exception Optimal in
    (* Build layouts left to right: at each step either extend the packed
       block with one remaining resident or (once) insert the free gap. *)
    let rec go next_col gap_used cost acc remaining =
      if cost >= !best_cost then ()
      else
        match remaining with
        | [] ->
          best_cost := cost;
          best_assignment := acc;
          if cost <= lower_bound then raise Optimal
        | _ ->
          if (not gap_used) && free > 0 then
            go (next_col + free) true cost acc remaining;
          List.iter
            (fun (r : Strip_state.resident) ->
              let move = if next_col = r.Strip_state.col_lo then 0 else r.Strip_state.cols in
              go (next_col + r.Strip_state.cols) gap_used (cost + move)
                ((r.Strip_state.id, next_col) :: acc)
                (List.filter (fun (o : Strip_state.resident) -> o.Strip_state.id <> r.Strip_state.id) remaining))
            remaining
    in
    (try go 0 false 0 [] residents with Optimal -> ());
    Some (plan_of residents !best_assignment)
  end

let best ?max_residents strip =
  match exact ?max_residents strip with
  | Some p -> p
  | None -> greedy strip

(* The plans on the rational strip, kept as the oracle: the same search,
   with the subset sums as a sorted list. *)
module Reference = struct
  module Strip_state = Strip_state.Reference

  type nonrec plan = plan = {
    moves : (int * int) list;
    cells : int;
  }

  (* Sorted, deduplicated subset sums of [values], 0 included. *)
  let subset_sums values =
    List.fold_left
      (fun sums v -> List.sort_uniq compare (List.rev_append (List.map (( + ) v) sums) sums))
      [ 0 ] values

  let plan_of residents assignment =
    let moves =
      List.filter_map
        (fun (r : Strip_state.resident) ->
          match List.assoc_opt r.Strip_state.id assignment with
          | Some lo when lo <> r.Strip_state.col_lo -> Some (r.Strip_state.id, lo)
          | _ -> None)
        residents
    in
    let cells =
      List.fold_left
        (fun acc (id, _) ->
          let r = List.find (fun (r : Strip_state.resident) -> r.Strip_state.id = id) residents in
          acc + r.Strip_state.cols)
        0 moves
    in
    { moves; cells }

  let greedy strip =
    let residents =
      List.sort
        (fun (a : Strip_state.resident) b ->
          compare (a.Strip_state.col_lo, a.Strip_state.id) (b.Strip_state.col_lo, b.Strip_state.id))
        (Strip_state.residents strip)
    in
    let next = ref 0 in
    let assignment =
      List.map
        (fun (r : Strip_state.resident) ->
          let lo = !next in
          next := !next + r.Strip_state.cols;
          (r.Strip_state.id, lo))
        residents
    in
    plan_of residents assignment

  let default_max_residents = 7

  let exact ?(max_residents = default_max_residents) strip =
    let residents = Strip_state.residents strip in
    let n = List.length residents in
    if n > max_residents then None
    else if n = 0 then Some { moves = []; cells = 0 }
    else begin
      let k = Strip_state.k strip in
      let free = k - List.fold_left (fun a (r : Strip_state.resident) -> a + r.Strip_state.cols) 0 residents in
      (* Admissible lower bound: in any defragmented layout a resident sits
         at a subset sum of resident widths, shifted by the gap or not. One
         whose current column is at neither kind of position must move. *)
      let sums = subset_sums (List.map (fun (r : Strip_state.resident) -> r.Strip_state.cols) residents) in
      let reachable lo = List.mem lo sums || (free > 0 && List.mem (lo - free) sums) in
      let lower_bound =
        List.fold_left
          (fun acc (r : Strip_state.resident) ->
            if reachable r.Strip_state.col_lo then acc else acc + r.Strip_state.cols)
          0 residents
      in
      let best_cost = ref max_int in
      let best_assignment = ref [] in
      let exception Optimal in
      (* Build layouts left to right: at each step either extend the packed
         block with one remaining resident or (once) insert the free gap. *)
      let rec go next_col gap_used cost acc remaining =
        if cost >= !best_cost then ()
        else
          match remaining with
          | [] ->
            best_cost := cost;
            best_assignment := acc;
            if cost <= lower_bound then raise Optimal
          | _ ->
            if (not gap_used) && free > 0 then
              go (next_col + free) true cost acc remaining;
            List.iter
              (fun (r : Strip_state.resident) ->
                let move = if next_col = r.Strip_state.col_lo then 0 else r.Strip_state.cols in
                go (next_col + r.Strip_state.cols) gap_used (cost + move)
                  ((r.Strip_state.id, next_col) :: acc)
                  (List.filter (fun (o : Strip_state.resident) -> o.Strip_state.id <> r.Strip_state.id) remaining))
              remaining
      in
      (try go 0 false 0 [] residents with Optimal -> ());
      Some (plan_of residents !best_assignment)
    end

  let best ?max_residents strip =
    match exact ?max_residents strip with
    | Some p -> p
    | None -> greedy strip
end
