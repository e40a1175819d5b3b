module Q = Spp_num.Rat
module Scale = Spp_num.Scale
module I = Spp_core.Instance
module Rect = Spp_geom.Rect
module Placement = Spp_geom.Placement
module Metrics = Spp_obs.Metrics

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

(* ------------------------------------------------------------------ *)
(* The rational loop this module started as: the oracle, and the path for
   inputs off the tick grid *)

let reference_run ?repack_threshold ?(migration_cost = Q.one) ?(exact_repack_max = 7) ~packer
    inst =
  let module Strip_state = Strip_state.Reference in
  let module Online = Online.Reference in
  let module Repack = Repack.Reference in
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

(* ------------------------------------------------------------------ *)
(* The loop on ticks *)

(* A run's input on ticks of [1/s]: the arrivals sorted by (release,
   id), as [Arrivals.of_instance] sorts them, and the threshold as
   [(a, b)] for [a/b]. *)
type ticks = {
  s : int;
  ids : int array;
  cols : int array;
  durations : int array;
  releases : int array;
  widened : int;
  threshold : (int * int) option;
}

(* [inst] on ticks, or [None] when the kernel cannot take it: a width
   outside (0, 1], a non-positive height, a negative release, or a value
   that may pass Scale.limit. Every event tick is at most the horizon
   (the strip is never idle while a task waits), so is every wait, and
   an integral A_f is at most k times it; the threshold test and the
   peak compare cross-products of k with a, b and k; a width a/b is
   ceil (a * k / b) columns. *)
let ticks ?repack_threshold (inst : I.Release.t) =
  let k = inst.I.Release.k in
  let in_range (t : I.Release.task) =
    let r = t.I.Release.rect in
    Q.sign r.Rect.w > 0 && Q.compare r.Rect.w Q.one <= 0 && Q.sign r.Rect.h > 0
    && Q.sign t.I.Release.release >= 0
  in
  if k < 1 || not (List.for_all in_range inst.I.Release.tasks) then None
  else
    Scale.fits (fun () ->
        let tasks = inst.I.Release.tasks in
        let n = List.length tasks in
        let s =
          List.fold_left
            (fun s (t : I.Release.task) ->
              Scale.extend (Scale.extend s t.I.Release.rect.Rect.h) t.I.Release.release)
            1 tasks
        in
        let ids = Array.make n 0 and cols = Array.make n 0 in
        let durations = Array.make n 0 and releases = Array.make n 0 in
        let widened = ref 0 in
        List.iteri
          (fun i (t : I.Release.task) ->
            let r = t.I.Release.rect in
            ids.(i) <- r.Rect.id;
            releases.(i) <- Scale.to_grid s t.I.Release.release;
            durations.(i) <- Scale.to_grid s r.Rect.h;
            let b = Scale.extend 1 r.Rect.w in
            let ak = Scale.mul (Scale.to_grid b r.Rect.w) k in
            cols.(i) <- ak / b;
            if ak mod b <> 0 then begin
              cols.(i) <- cols.(i) + 1;
              incr widened
            end)
          tasks;
        let horizon = Array.fold_left Scale.add (Array.fold_left max 0 releases) durations in
        ignore (Scale.mul horizon (max n k) + Scale.mul k k : int);
        let threshold =
          Option.map
            (fun q ->
              let b = Scale.extend 1 q in
              let a = Scale.to_grid b q in
              ignore (Scale.mul a k + Scale.mul b k : int);
              (a, b))
            repack_threshold
        in
        (* Generated traces come in arrival order already. *)
        let later i j =
          releases.(i) > releases.(j) || (releases.(i) = releases.(j) && ids.(i) > ids.(j))
        in
        let rec in_order i = i >= n || ((not (later (i - 1) i)) && in_order (i + 1)) in
        let sorted =
          if in_order 1 then Fun.id
          else begin
            let order = Array.init n Fun.id in
            Array.sort (fun i j -> if later i j then 1 else if later j i then -1 else 0) order;
            fun a -> Array.map (fun i -> a.(i)) order
          end
        in
        { s; ids = sorted ids; cols = sorted cols; durations = sorted durations;
          releases = sorted releases; widened = !widened; threshold })

let on_kernel ?repack_threshold inst = Option.is_some (ticks ?repack_threshold inst)

let tick_run (g : ticks) ~migration_cost ~exact_repack_max ~packer inst =
  let k = inst.I.Release.k in
  let n = Array.length g.ids in
  let s = g.s and release = g.releases and duration = g.durations in
  let queue = Online.queue ~ids:g.ids ~cols:g.cols ~durations:duration in
  let strip = Strip_state.create ~k in
  let ai = ref 0 in
  let placements = ref 0 in
  let total_wait = ref 0 in
  let max_pending = ref 0 in
  let makespan = ref 0 in
  let repacks = ref [] in
  (* Time-weighted fragmentation: the post-event value excess/free
     (excess = free - largest run) holds until the next event, so
     [area.(f)] sums excess * gap over the gaps with [f] free columns and
     the integral is the sum of area.(f) / (f * s). The peak is the
     fraction peak_num/peak_den. *)
  let area = Array.make (k + 1) 0 in
  let prev_time = ref 0 in
  let prev_free = ref 0 in
  let prev_excess = ref 0 in
  let peak_num = ref 0 in
  let peak_den = ref 1 in
  let placed i =
    incr placements;
    let now = Strip_state.now strip in
    total_wait := !total_wait + now - release.(i);
    let finish = now + duration.(i) in
    if finish > !makespan then makespan := finish
  in
  let step_at time =
    area.(!prev_free) <- area.(!prev_free) + (!prev_excess * (time - !prev_time));
    prev_time := time;
    ignore (Strip_state.advance strip time : Strip_state.resident list);
    while !ai < n && release.(!ai) <= time do
      Online.push queue !ai;
      incr ai
    done;
    if Online.length queue > !max_pending then max_pending := Online.length queue;
    Online.step packer strip queue ~more_arrivals:(!ai < n) ~placed;
    let free = ref (Strip_state.free_cols strip) in
    let excess = ref (!free - Strip_state.largest_free_run strip) in
    (match g.threshold with
    | Some (a, b) when !excess > 0 && !excess * b >= a * !free ->
      let plan = Repack.best ~max_residents:exact_repack_max strip in
      if plan.Repack.moves <> [] then begin
        Strip_state.apply_moves strip plan.Repack.moves;
        repacks :=
          { at = Scale.of_grid s time; frag_before = Q.of_ints !excess !free;
            frag_after = Strip_state.fragmentation strip;
            moved = List.length plan.Repack.moves; cells = plan.Repack.cells }
          :: !repacks;
        (* The consolidated gap may admit tasks that were just refused. *)
        Online.step packer strip queue ~more_arrivals:(!ai < n) ~placed;
        free := Strip_state.free_cols strip;
        excess := !free - Strip_state.largest_free_run strip
      end
    | _ -> ());
    prev_free := !free;
    prev_excess := !excess;
    if !excess * !peak_den > !peak_num * !free then begin
      peak_num := !excess;
      peak_den := !free
    end
  in
  let rec drive () =
    let t_fin = Strip_state.next_finish strip in
    if !ai < n then begin
      let t_arr = release.(!ai) in
      step_at (if t_arr <= t_fin then t_arr else t_fin);
      drive ()
    end
    else if t_fin < max_int then begin
      step_at t_fin;
      drive ()
    end
    else if Online.length queue > 0 then
      failwith "Spp_sim.Sim: stalled with pending tasks and no events"
  in
  drive ();
  (* Close the fragmentation integral at the makespan (the strip is empty
     from the last finish on, and advance there retires nothing new). *)
  let now = Strip_state.now strip in
  step_at (if !makespan > now then !makespan else now);
  let repacks = List.rev !repacks in
  let moves = List.fold_left (fun a e -> a + e.moved) 0 repacks in
  let cells = List.fold_left (fun a e -> a + e.cells) 0 repacks in
  let frag_mean =
    if !makespan > 0 then begin
      let acc = ref Q.zero in
      for f = 1 to k do
        if area.(f) <> 0 then acc := Q.add !acc (Q.of_ints area.(f) f)
      done;
      Q.div !acc (Q.of_int !makespan)
    end
    else Q.zero
  in
  {
    k;
    tasks = n;
    widened = g.widened;
    makespan = Scale.of_grid s !makespan;
    total_wait = Scale.of_grid s !total_wait;
    max_pending = !max_pending;
    placements = !placements;
    repacks;
    moves;
    cells_migrated = cells;
    migration_cost = Q.mul (Q.of_int cells) migration_cost;
    frag_peak = Q.of_ints !peak_num !peak_den;
    frag_mean;
    segments = Strip_state.segments strip ~scale:s;
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

let run ?registry ?repack_threshold ?(migration_cost = Q.one) ?(exact_repack_max = 7) ~packer
    inst =
  let r =
    match ticks ?repack_threshold inst with
    | Some g -> tick_run g ~migration_cost ~exact_repack_max ~packer inst
    | None -> reference_run ?repack_threshold ~migration_cost ~exact_repack_max ~packer inst
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
  | Unknown_task of int

let pp_violation ppf = function
  | Overlap (a, b) -> Format.fprintf ppf "tasks %d and %d overlap in time and columns" a b
  | Early_start id -> Format.fprintf ppf "task %d starts before its release" id
  | Out_of_strip id -> Format.fprintf ppf "task %d occupies columns outside the strip" id
  | Too_narrow id -> Format.fprintf ppf "task %d runs on fewer columns than its width needs" id
  | Chain_gap id -> Format.fprintf ppf "task %d has a broken or mis-sized segment chain" id
  | Missing id -> Format.fprintf ppf "task %d never ran" id
  | Unknown_task id ->
    Format.fprintf ppf "the log has segments of task %d, which is not in the instance" id

let overlap_cols lo1 n1 lo2 n2 = lo1 < lo2 + n2 && lo2 < lo1 + n1

(* Everything but overlaps: coverage, release floors, segment chains,
   strip bounds and widths, task by task in instance order, then one
   [Unknown_task] per id the instance lacks, in log order. *)
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
  (* What the instance's ids leave in [by_id] are the unknown ones. *)
  List.iter (fun (t : I.Release.task) -> Hashtbl.remove by_id t.I.Release.rect.Rect.id)
    inst.I.Release.tasks;
  List.iter
    (fun (s : Strip_state.segment) ->
      if Hashtbl.mem by_id s.Strip_state.seg_id then begin
        Hashtbl.remove by_id s.Strip_state.seg_id;
        add (Unknown_task s.Strip_state.seg_id)
      end)
    r.segments;
  List.rev !violations

(* Two segments of different tasks sharing an instant and a column. *)
let collide (a : Strip_state.segment) (b : Strip_state.segment) =
  a.Strip_state.seg_id <> b.Strip_state.seg_id
  && Q.compare a.Strip_state.seg_from b.Strip_state.seg_to < 0
  && Q.compare b.Strip_state.seg_from a.Strip_state.seg_to < 0
  && overlap_cols a.Strip_state.seg_lo a.Strip_state.seg_cols b.Strip_state.seg_lo
       b.Strip_state.seg_cols

(* One [Overlap] per task pair among the colliding segment pairs [(i, j)]
   (sorted), at its first pair. *)
let first_overlaps (segs : Strip_state.segment array) colliding =
  let seen = Hashtbl.create 16 in
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

(* A check's input on ticks of [1/s], [s] the lcm of the instance's
   heights and releases and the log's endpoints: every task's height,
   release and fewest columns, and each segment's owner (an instance
   position, or -1) and endpoints. *)
type check_ticks = {
  heights : int array;
  rel : int array;
  need : int array;
  owner : int array;
  from : int array;
  upto : int array;
}

(* Raises Scale.Off_grid past the guard: a width outside (0, 1], or a
   value or a·k past 2^60. A width a/b needs ceil(a·k / b) columns:
   cols/k < a/b exactly when cols is fewer. *)
let check_ticks (inst : I.Release.t) tasks (segs : Strip_state.segment array) =
  let k = inst.I.Release.k in
  let n = Array.length tasks and m = Array.length segs in
  let s = ref 1 in
  Array.iter
    (fun (t : I.Release.task) ->
      s := Scale.extend (Scale.extend !s t.I.Release.rect.Rect.h) t.I.Release.release)
    tasks;
  Array.iter
    (fun (g : Strip_state.segment) ->
      s := Scale.extend (Scale.extend !s g.Strip_state.seg_from) g.Strip_state.seg_to)
    segs;
  let s = !s in
  let pos = Hashtbl.create n in
  let heights = Array.make n 0 and rel = Array.make n 0 and need = Array.make n 0 in
  Array.iteri
    (fun i (t : I.Release.task) ->
      let r = t.I.Release.rect in
      Hashtbl.replace pos r.Rect.id i;
      heights.(i) <- Scale.to_grid s r.Rect.h;
      rel.(i) <- Scale.to_grid s t.I.Release.release;
      let b = Scale.extend 1 r.Rect.w in
      let a = Scale.to_grid b r.Rect.w in
      if a <= 0 || a > b then raise Scale.Off_grid;
      let ak = Scale.mul a k in
      need.(i) <- (ak / b) + if ak mod b = 0 then 0 else 1)
    tasks;
  let owner = Array.make m 0 and from = Array.make m 0 and upto = Array.make m 0 in
  Array.iteri
    (fun j (g : Strip_state.segment) ->
      owner.(j) <- (try Hashtbl.find pos g.Strip_state.seg_id with Not_found -> -1);
      from.(j) <- Scale.to_grid s g.Strip_state.seg_from;
      upto.(j) <- Scale.to_grid s g.Strip_state.seg_to)
    segs;
  { heights; rel; need; owner; from; upto }

(* [task_violations] and the sweep on ticks. *)
let tick_check (inst : I.Release.t) tasks (segs : Strip_state.segment array) g =
  let k = inst.I.Release.k in
  let n = Array.length tasks and m = Array.length segs in
  let violations = ref [] in
  let add v = violations := v :: !violations in
  (* Each task's segments, by a counting sort over instance positions:
     those of task [i] at [chain.(first.(i) .. first.(i + 1) - 1)], by
     start, equal starts in reverse log order (as the stable sort of
     [task_violations] leaves them). *)
  let first = Array.make (n + 1) 0 in
  Array.iter (fun i -> if i >= 0 then first.(i + 1) <- first.(i + 1) + 1) g.owner;
  for i = 1 to n do
    first.(i) <- first.(i) + first.(i - 1)
  done;
  let fill = Array.sub first 0 n in
  let chain = Array.make first.(n) 0 in
  Array.iteri
    (fun j i ->
      if i >= 0 then begin
        chain.(fill.(i)) <- j;
        fill.(i) <- fill.(i) + 1
      end)
    g.owner;
  let by_start a b =
    if g.from.(a) <> g.from.(b) then Int.compare g.from.(a) g.from.(b) else Int.compare b a
  in
  for i = 0 to n - 1 do
    let lo = first.(i) and len = first.(i + 1) - first.(i) in
    if len > 1 then begin
      let sub = Array.sub chain lo len in
      Array.sort by_start sub;
      Array.blit sub 0 chain lo len
    end
  done;
  for i = 0 to n - 1 do
    let id = tasks.(i).I.Release.rect.Rect.id in
    let lo = first.(i) and hi = first.(i + 1) in
    if lo = hi then add (Missing id)
    else begin
      let f = chain.(lo) in
      let cols = segs.(f).Strip_state.seg_cols in
      if g.from.(f) < g.rel.(i) then add (Early_start id);
      let chain_ok = ref (g.upto.(chain.(hi - 1)) - g.from.(f) = g.heights.(i)) in
      let outside = ref false in
      let prev_to = ref g.from.(f) in
      for c = lo to hi - 1 do
        let j = chain.(c) and s = segs.(chain.(c)) in
        if g.from.(j) <> !prev_to || g.upto.(j) <= g.from.(j) || s.Strip_state.seg_cols <> cols then
          chain_ok := false;
        prev_to := g.upto.(j);
        if s.Strip_state.seg_lo < 0 || s.Strip_state.seg_lo + s.Strip_state.seg_cols > k then
          outside := true
      done;
      if not !chain_ok then add (Chain_gap id);
      if !outside then add (Out_of_strip id);
      if cols < g.need.(i) then add (Too_narrow id)
    end
  done;
  let unknown = Hashtbl.create 1 in
  for j = 0 to m - 1 do
    let id = segs.(j).Strip_state.seg_id in
    if g.owner.(j) < 0 && not (Hashtbl.mem unknown id) then begin
      Hashtbl.replace unknown id ();
      add (Unknown_task id)
    end
  done;
  let colliding =
    Spp_geom.Sweep.pairs ~compare:Int.compare ~lo:g.from ~hi:g.upto (fun i j ->
        segs.(i).Strip_state.seg_id <> segs.(j).Strip_state.seg_id
        && g.from.(i) < g.upto.(j)
        && g.from.(j) < g.upto.(i)
        && overlap_cols segs.(i).Strip_state.seg_lo segs.(i).Strip_state.seg_cols
             segs.(j).Strip_state.seg_lo segs.(j).Strip_state.seg_cols)
  in
  List.rev_append !violations (first_overlaps segs colliding)

let check (inst : I.Release.t) (r : report) =
  let tasks = Array.of_list inst.I.Release.tasks and segs = Array.of_list r.segments in
  match Scale.fits (fun () -> check_ticks inst tasks segs) with
  | Some g -> tick_check inst tasks segs g
  | None ->
    (* Only segments whose time intervals meet can collide: sweep over
       time. A task pair is reported once, at its first colliding segment
       pair in log order. *)
    task_violations inst r
    @ first_overlaps segs
        (Spp_geom.Sweep.pairs ~compare:Q.compare
           ~lo:(Array.map (fun (s : Strip_state.segment) -> s.Strip_state.seg_from) segs)
           ~hi:(Array.map (fun (s : Strip_state.segment) -> s.Strip_state.seg_to) segs)
           (fun i j -> collide segs.(i) segs.(j)))

let check_on_ticks (inst : I.Release.t) (r : report) =
  Option.is_some
    (Scale.fits (fun () ->
         check_ticks inst (Array.of_list inst.I.Release.tasks) (Array.of_list r.segments)))

(* The rational loop and the pairwise segment loop: the oracles the
   differential tests compare [run] and [check] with. *)
module Reference = struct
  let run = reference_run

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
