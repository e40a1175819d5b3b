module Q = Spp_num.Rat
module I = Spp_core.Instance
module Rect = Spp_geom.Rect
module Placement = Spp_geom.Placement
module Metrics = Spp_obs.Metrics
module Trace = Spp_obs.Trace
module Field = Spp_obs.Field

type repack_event = {
  at : Q.t;
  frag_before : Q.t;
  frag_after : Q.t;
  moved : int;
  cells : int;
}

type report = {
  k : int;
  tasks : int;
  widened : int;
  makespan : Q.t;
  total_wait : Q.t;
  max_pending : int;
  placements : int;
  repacks : repack_event list;
  moves : int;
  cells_migrated : int;
  migration_cost : Q.t;
  frag_peak : Q.t;
  frag_mean : Q.t;
  segments : Strip_state.segment list;
}

let run_loop ?repack_threshold ~migration_cost ~exact_repack_max ~packer inst =
  let k = inst.I.Release.k in
  let arrivals, widened = Arrivals.of_instance inst in
  let arr = Array.of_list arrivals in
  let n = Array.length arr in
  let strip = Strip_state.create ~k in
  let ai = ref 0 in
  let pending = ref [] in
  let placements = ref 0 in
  let total_wait = ref Q.zero in
  let max_pending = ref 0 in
  let makespan = ref Q.zero in
  let repacks = ref [] in
  (* Time-weighted fragmentation: integrate the post-event value over the
     gap to the next event; peak samples the same post-event values. *)
  let prev_time = ref Q.zero in
  let prev_frag = ref Q.zero in
  let frag_acc = ref Q.zero in
  let frag_peak = ref Q.zero in
  let record_placements placed =
    List.iter
      (fun ((a : Arrivals.arrival), _col) ->
        incr placements;
        total_wait := Q.add !total_wait (Q.sub (Strip_state.now strip) a.Arrivals.release);
        let finish = Q.add (Strip_state.now strip) a.Arrivals.duration in
        if Q.compare finish !makespan > 0 then makespan := finish)
      placed
  in
  let step_at time =
    frag_acc := Q.add !frag_acc (Q.mul !prev_frag (Q.sub time !prev_time));
    prev_time := time;
    ignore (Strip_state.advance strip time : Strip_state.resident list);
    while !ai < n && Q.compare arr.(!ai).Arrivals.release time <= 0 do
      pending := !pending @ [ arr.(!ai) ];
      incr ai
    done;
    if List.length !pending > !max_pending then max_pending := List.length !pending;
    let placed, rest = Online.step packer strip ~pending:!pending ~more_arrivals:(!ai < n) in
    pending := rest;
    record_placements placed;
    (match repack_threshold with
    | Some threshold ->
      let frag = Strip_state.fragmentation strip in
      if Q.sign frag > 0 && Q.compare frag threshold >= 0 then begin
        let plan = Repack.best ~max_residents:exact_repack_max strip in
        if plan.Repack.moves <> [] then begin
          Strip_state.apply_moves strip plan.Repack.moves;
          repacks :=
            { at = time; frag_before = frag; frag_after = Strip_state.fragmentation strip;
              moved = List.length plan.Repack.moves; cells = plan.Repack.cells }
            :: !repacks;
          (* The consolidated gap may admit tasks that were just refused. *)
          let placed, rest =
            Online.step packer strip ~pending:!pending ~more_arrivals:(!ai < n)
          in
          pending := rest;
          record_placements placed
        end
      end
    | None -> ());
    let frag = Strip_state.fragmentation strip in
    prev_frag := frag;
    if Q.compare frag !frag_peak > 0 then frag_peak := frag
  in
  let rec drive () =
    let t_arr = if !ai < n then Some arr.(!ai).Arrivals.release else None in
    let t_fin =
      List.fold_left
        (fun acc (r : Strip_state.resident) ->
          match acc with
          | None -> Some r.Strip_state.finish
          | Some m -> if Q.compare r.Strip_state.finish m < 0 then Some r.Strip_state.finish else acc)
        None (Strip_state.residents strip)
    in
    match (t_arr, t_fin) with
    | None, None ->
      if !pending <> [] then failwith "Spp_sim.Sim: stalled with pending tasks and no events"
    | Some a, None -> step_at a; drive ()
    | None, Some f -> step_at f; drive ()
    | Some a, Some f ->
      step_at (if Q.compare a f <= 0 then a else f);
      drive ()
  in
  drive ();
  (* Close the fragmentation integral at the makespan (the strip is empty
     from the last finish on, and advance there retires nothing new). *)
  step_at (if Q.compare !makespan (Strip_state.now strip) > 0 then !makespan else Strip_state.now strip);
  let repacks = List.rev !repacks in
  let moves = List.fold_left (fun a e -> a + e.moved) 0 repacks in
  let cells = List.fold_left (fun a e -> a + e.cells) 0 repacks in
  let frag_mean =
    if Q.sign !makespan > 0 then Q.div !frag_acc !makespan else Q.zero
  in
  {
    k;
    tasks = n;
    widened;
    makespan = !makespan;
    total_wait = !total_wait;
    max_pending = !max_pending;
    placements = !placements;
    repacks;
    moves;
    cells_migrated = cells;
    migration_cost = Q.mul (Q.of_int cells) migration_cost;
    frag_peak = !frag_peak;
    frag_mean;
    segments = Strip_state.segments strip;
  }

let publish_metrics registry (r : report) =
  let c name by = Metrics.incr ~by (Metrics.counter registry name) in
  c "spp_sim_arrivals_total" r.tasks;
  c "spp_sim_placements_total" r.placements;
  c "spp_sim_repacks_total" (List.length r.repacks);
  c "spp_sim_moves_total" r.moves;
  c "spp_sim_cells_migrated_total" r.cells_migrated;
  Metrics.gauge_set (Metrics.gauge registry "spp_sim_makespan") (Q.to_float r.makespan);
  Metrics.gauge_set (Metrics.gauge registry "spp_sim_fragmentation_mean") (Q.to_float r.frag_mean)

let run ?registry ?trace ?repack_threshold ?(migration_cost = Q.one) ?(exact_repack_max = 7)
    ~packer inst =
  let go () = run_loop ?repack_threshold ~migration_cost ~exact_repack_max ~packer inst in
  let r =
    match trace with
    | None -> go ()
    | Some tr ->
      Trace.with_span tr ~parent:(Trace.root tr) "sim.run" (fun sp ->
          let r = go () in
          Trace.add_fields tr sp
            [
              ("packer", Field.String (Online.to_string packer));
              ("tasks", Field.Int r.tasks);
              ("makespan", Field.String (Q.to_string r.makespan));
              ("repacks", Field.Int (List.length r.repacks));
              ("cells_migrated", Field.Int r.cells_migrated);
            ];
          r)
  in
  (match registry with Some m -> publish_metrics m r | None -> ());
  r

type violation =
  | Overlap of int * int
  | Early_start of int
  | Out_of_strip of int
  | Too_narrow of int
  | Chain_gap of int
  | Missing of int

let pp_violation ppf = function
  | Overlap (a, b) -> Format.fprintf ppf "tasks %d and %d overlap in time and columns" a b
  | Early_start id -> Format.fprintf ppf "task %d starts before its release" id
  | Out_of_strip id -> Format.fprintf ppf "task %d occupies columns outside the strip" id
  | Too_narrow id -> Format.fprintf ppf "task %d runs on fewer columns than its width needs" id
  | Chain_gap id -> Format.fprintf ppf "task %d has a broken or mis-sized segment chain" id
  | Missing id -> Format.fprintf ppf "task %d never ran" id

let overlap_cols lo1 n1 lo2 n2 = lo1 < lo2 + n2 && lo2 < lo1 + n1

(* Everything but overlaps: coverage, release floors, segment chains,
   strip bounds and widths, task by task in instance order. *)
let task_violations (inst : I.Release.t) (r : report) =
  let violations = ref [] in
  let add v = violations := v :: !violations in
  let by_id = Hashtbl.create 64 in
  List.iter
    (fun (s : Strip_state.segment) ->
      Hashtbl.replace by_id s.Strip_state.seg_id
        (s :: (Option.value ~default:[] (Hashtbl.find_opt by_id s.Strip_state.seg_id))))
    r.segments;
  List.iter
    (fun (t : I.Release.task) ->
      let id = t.I.Release.rect.Rect.id in
      match Hashtbl.find_opt by_id id with
      | None | Some [] -> add (Missing id)
      | Some segs ->
        let segs =
          List.sort
            (fun (a : Strip_state.segment) b -> Q.compare a.Strip_state.seg_from b.Strip_state.seg_from)
            segs
        in
        let first = List.hd segs in
        let last = List.nth segs (List.length segs - 1) in
        if Q.compare first.Strip_state.seg_from t.I.Release.release < 0 then add (Early_start id);
        let chain_ok = ref true in
        let prev_to = ref first.Strip_state.seg_from in
        List.iter
          (fun (s : Strip_state.segment) ->
            if Q.compare s.Strip_state.seg_from !prev_to <> 0 then chain_ok := false;
            if Q.compare s.Strip_state.seg_to s.Strip_state.seg_from <= 0 then chain_ok := false;
            if s.Strip_state.seg_cols <> first.Strip_state.seg_cols then chain_ok := false;
            prev_to := s.Strip_state.seg_to)
          segs;
        let total = Q.sub last.Strip_state.seg_to first.Strip_state.seg_from in
        if not (Q.equal total t.I.Release.rect.Rect.h) then chain_ok := false;
        if not !chain_ok then add (Chain_gap id);
        if
          List.exists
            (fun (s : Strip_state.segment) ->
              s.Strip_state.seg_lo < 0 || s.Strip_state.seg_lo + s.Strip_state.seg_cols > r.k)
            segs
        then add (Out_of_strip id);
        if Q.compare (Q.of_ints first.Strip_state.seg_cols r.k) t.I.Release.rect.Rect.w < 0 then
          add (Too_narrow id))
    inst.I.Release.tasks;
  List.rev !violations

(* Two segments of different tasks sharing an instant and a column. *)
let collide (a : Strip_state.segment) (b : Strip_state.segment) =
  a.Strip_state.seg_id <> b.Strip_state.seg_id
  && Q.compare a.Strip_state.seg_from b.Strip_state.seg_to < 0
  && Q.compare b.Strip_state.seg_from a.Strip_state.seg_to < 0
  && overlap_cols a.Strip_state.seg_lo a.Strip_state.seg_cols b.Strip_state.seg_lo
       b.Strip_state.seg_cols

let check (inst : I.Release.t) (r : report) =
  (* Only segments whose time intervals meet can collide: sweep over time.
     A task pair is reported once, at its first colliding segment pair in
     log order. *)
  let segs = Array.of_list r.segments in
  let colliding =
    Spp_geom.Sweep.pairs
      ~lo:(Array.map (fun (s : Strip_state.segment) -> s.Strip_state.seg_from) segs)
      ~hi:(Array.map (fun (s : Strip_state.segment) -> s.Strip_state.seg_to) segs)
      (fun i j -> collide segs.(i) segs.(j))
  in
  let seen = Hashtbl.create 16 in
  let overlaps =
    List.filter_map
      (fun (i, j) ->
        let a = segs.(i).Strip_state.seg_id and b = segs.(j).Strip_state.seg_id in
        let pair = (min a b, max a b) in
        if Hashtbl.mem seen pair then None
        else begin
          Hashtbl.replace seen pair ();
          Some (Overlap (fst pair, snd pair))
        end)
      colliding
  in
  task_violations inst r @ overlaps

(* The pairwise segment loop: the oracle the differential tests compare
   [check] with. *)
module Reference = struct
  let check (inst : I.Release.t) (r : report) =
    let violations = ref [] in
    let segs = Array.of_list r.segments in
    let seen = Hashtbl.create 16 in
    for i = 0 to Array.length segs - 1 do
      for j = i + 1 to Array.length segs - 1 do
        let a = segs.(i) and b = segs.(j) in
        if collide a b then begin
          let pair =
            (min a.Strip_state.seg_id b.Strip_state.seg_id,
             max a.Strip_state.seg_id b.Strip_state.seg_id)
          in
          if not (Hashtbl.mem seen pair) then begin
            Hashtbl.replace seen pair ();
            violations := Overlap (fst pair, snd pair) :: !violations
          end
        end
      done
    done;
    task_violations inst r @ List.rev !violations
end

let to_placement (inst : I.Release.t) (r : report) =
  let by_id = Hashtbl.create 64 in
  List.iter
    (fun (s : Strip_state.segment) ->
      Hashtbl.replace by_id s.Strip_state.seg_id
        (s :: (Option.value ~default:[] (Hashtbl.find_opt by_id s.Strip_state.seg_id))))
    r.segments;
  let exception Moved in
  try
    let items =
      List.map
        (fun (t : I.Release.task) ->
          match Hashtbl.find_opt by_id t.I.Release.rect.Rect.id with
          | Some [ (s : Strip_state.segment) ] ->
            {
              Placement.rect = t.I.Release.rect;
              pos =
                { Placement.x = Q.of_ints s.Strip_state.seg_lo r.k; y = s.Strip_state.seg_from };
            }
          | _ -> raise Moved)
        inst.I.Release.tasks
    in
    Some (Placement.of_items items)
  with Moved -> None
