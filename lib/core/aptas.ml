module Q = Spp_num.Rat
module B = Spp_num.Bigint
module Rect = Spp_geom.Rect
module Placement = Spp_geom.Placement
module Release = Instance.Release
module Heap = Spp_util.Heap

type result = {
  placement : Placement.t;
  height : Q.t;
  fractional_height : Q.t;
  lower_bound : Q.t;
  occurrences : int;
  max_occurrences : int;
  num_configs : int;
  num_widths : int;
  num_phases : int;
  r_param : int;
  w_param : int;
  fallback_rects : int;
}

let ceil_inv_int eps =
  (* ⌈1/eps⌉ as a native int. *)
  B.to_int_exn (Q.ceil (Q.inv eps))

(* Lemma 3.4: convert the fractional solution into an integral placement.
   For each nonzero occurrence (q, j), bottom-up by phase, each width slot
   of q becomes a column greedily filled with not-yet-placed rectangles of
   that (grouped) width already released at phase j, earliest release
   first. The column may overshoot its reserved height by less than one
   rectangle; the running top shifts everything above accordingly. *)
let round_to_integral ~cancel (reduced : Release.t) (sol : Config_lp.solved) =
  (* Per width index: min-heap of tasks by (release, id). *)
  let nw = Array.length sol.widths in
  let heaps =
    Array.init nw (fun _ ->
        Heap.create ~cmp:(fun (a : Release.task) b ->
            let c = Q.compare a.Release.release b.Release.release in
            if c <> 0 then c else compare a.Release.rect.Rect.id b.Release.rect.Rect.id))
  in
  let width_index w =
    let rec find i = if Q.equal sol.widths.(i) w then i else find (i + 1) in
    find 0
  in
  List.iter
    (fun (task : Release.task) ->
      Heap.push heaps.(width_index task.Release.rect.Rect.w) task)
    reduced.tasks;
  let items = ref [] in
  let y = ref Q.zero in
  List.iter
    (fun (occ : Config_lp.occurrence) ->
      Spp_util.Cancel.check cancel;
      let phase_start = sol.boundaries.(occ.phase) in
      y := Q.max !y phase_start;
      let base = !y in
      let max_fill = ref Q.zero in
      let x_off = ref Q.zero in
      Array.iteri
        (fun i count ->
          for _copy = 1 to count do
            let cum = ref Q.zero in
            let continue = ref true in
            while !continue && Q.compare !cum occ.height < 0 do
              match Heap.peek heaps.(i) with
              | Some task when Q.compare task.Release.release phase_start <= 0 ->
                ignore (Heap.pop_exn heaps.(i));
                items :=
                  { Placement.rect = task.Release.rect;
                    pos = { Placement.x = !x_off; y = Q.add base !cum } }
                  :: !items;
                cum := Q.add !cum task.Release.rect.Rect.h
              | _ -> continue := false
            done;
            max_fill := Q.max !max_fill !cum;
            x_off := Q.add !x_off sol.widths.(i)
          done)
        occ.counts;
      y := Q.add base (Q.max occ.height !max_fill))
    sol.occurrences;
  (* Safety net: the covering constraints guarantee every rectangle is
     placed; if that ever failed, stack the leftovers with NFDH above
     everything (still valid, asymptotically harmless) and report. *)
  let leftovers =
    Array.to_list heaps
    |> List.concat_map (fun h ->
        let rec drain acc = match Heap.pop h with None -> acc | Some t -> drain (t :: acc) in
        drain [])
  in
  let fallback_rects = List.length leftovers in
  let items =
    if leftovers = [] then !items
    else begin
      let rects = List.map (fun (t : Release.task) -> t.Release.rect) leftovers in
      let max_rel =
        List.fold_left (fun acc (t : Release.task) -> Q.max acc t.Release.release) Q.zero leftovers
      in
      let extra = Spp_pack.Level.nfdh rects in
      let extra = Placement.shift_y extra (Q.max !y max_rel) in
      Placement.items extra @ !items
    end
  in
  (Placement.of_items items, fallback_rects)

let solve ?(cancel = Spp_util.Cancel.never) ?(solver = `Enumerate) ~epsilon
    (inst : Release.t) =
  if Q.sign epsilon <= 0 then invalid_arg "Aptas.solve: epsilon must be positive";
  let eps' = Q.div epsilon (Q.of_int 3) in
  let r_param = ceil_inv_int eps' in
  let groups_per_class = ceil_inv_int eps' * inst.k in
  let w_param = groups_per_class * (r_param + 1) in
  (* Line 5: P -> P(R). *)
  let p_r = Grouping.round_releases ~epsilon_r:eps' inst in
  Spp_util.Cancel.check cancel;
  (* Line 6: P(R) -> P(R,W). *)
  let p_rw = Grouping.group_widths ~groups_per_class p_r in
  Spp_util.Cancel.check cancel;
  (* Line 7: exact configuration LP (enumerated or column-generated). *)
  let sol =
    match solver with
    | `Enumerate -> Config_lp.solve p_rw
    | `Column_generation -> Config_colgen.solve ~cancel p_rw
  in
  Spp_util.Cancel.check cancel;
  (* Line 8: fractional -> integral (positions computed on the reduced
     rects, then transferred to the original rects, which are no wider and
     released no later). *)
  let reduced_placement, fallback_rects = round_to_integral ~cancel p_rw sol in
  let original_rect = Hashtbl.create 16 in
  List.iter
    (fun (task : Release.task) -> Hashtbl.replace original_rect task.Release.rect.Rect.id task.Release.rect)
    inst.tasks;
  let placement =
    Placement.of_items
      (List.map
         (fun (it : Placement.item) ->
           { it with Placement.rect = Hashtbl.find original_rect it.rect.Rect.id })
         (Placement.items reduced_placement))
  in
  let one_plus = Q.add Q.one eps' in
  let lower_bound =
    Q.max
      (Q.div sol.fractional_height (Q.mul one_plus one_plus))
      (Lower_bounds.release inst)
  in
  {
    placement;
    height = Placement.height placement;
    fractional_height = sol.fractional_height;
    lower_bound;
    occurrences = List.length sol.occurrences;
    max_occurrences = (w_param + 1) * (r_param + 1);
    num_configs = sol.num_configs;
    num_widths = Array.length sol.widths;
    num_phases = Array.length sol.boundaries;
    r_param;
    w_param;
    fallback_rects;
  }

let strip ~epsilon ~k rects =
  let tasks = List.map (fun rect -> { Release.rect; release = Q.zero }) rects in
  solve ~epsilon (Release.make ~k tasks)
