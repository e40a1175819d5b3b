module Q = Spp_num.Rat
module Scale = Spp_num.Scale
module Rect = Spp_geom.Rect
module Placement = Spp_geom.Placement
module Dag = Spp_dag.Dag

type outcome = { height : Q.t; placement : Placement.t; nodes_expanded : int }

let max_n = 9

(* Per-worker search counters, mutated race-free by exactly one domain and
   summed by the caller after the joins (Domain.join is the happens-before
   edge), so the ambient profile is reported on the engine's domain. *)
type stats = { mutable nodes : int; mutable pruned : int; mutable dominated : int }

(* [drain ~workers ntasks worker] runs root tasks [0 .. ntasks - 1] on
   [workers] domains (at most one per task) through [Parallel.map]. Each
   worker calls [worker stats] once for its own runner and counters, then
   drains the task counter. A worker that raises stops the others at
   their next task. The summed counts go to the calling domain's profile
   on every exit, an abort included; the result is the node count. *)
let drain ~workers ntasks worker =
  let w = Stdlib.max 1 (Stdlib.min workers ntasks) in
  let all_stats = Array.init w (fun _ -> { nodes = 0; pruned = 0; dominated = 0 }) in
  let next = Atomic.make 0 and failed = Atomic.make false in
  let work k =
    let run = worker all_stats.(k) in
    let rec loop () =
      let t = Atomic.fetch_and_add next 1 in
      if t < ntasks && not (Atomic.get failed) then begin
        (try run t
         with e ->
           Atomic.set failed true;
           raise e);
        loop ()
      end
    in
    loop ()
  in
  let sum f = Array.fold_left (fun a s -> a + f s) 0 all_stats in
  let report () =
    Spp_obs.Profile.add_bb_nodes (sum (fun s -> s.nodes));
    Spp_obs.Profile.add_bb_pruned (sum (fun s -> s.pruned));
    Spp_obs.Profile.add_bb_dominated (sum (fun s -> s.dominated))
  in
  (match Spp_util.Parallel.map ~workers:w work (List.init w Fun.id) with
   | _ -> report ()
   | exception e ->
     report ();
     raise e);
  sum (fun s -> s.nodes)

(* What both paths share around the search: the size guard, the seed
   (the bottom-left order search, an upper bound that runs on — and
   reports its own profile to — the calling domain) and the early exit
   when the seed already meets the global lower bound. [search seed]
   returns the best height, its items and the nodes it expanded. *)
let frame ~cancel (inst : Spp_core.Instance.Prec.t) search =
  let n = Spp_core.Instance.Prec.size inst in
  if n > max_n then invalid_arg "Normal_bb.solve: instance too large (n > 9)";
  if n = 0 then { height = Q.zero; placement = Placement.of_items []; nodes_expanded = 0 }
  else begin
    let global_lb =
      Q.max (Rect.total_area inst.rects) (Spp_core.Lower_bounds.critical_path inst)
    in
    let seed = Order_search.best_prec ~cancel inst in
    let height, items, nodes =
      if Q.compare seed.Order_search.height global_lb > 0 then search seed
      else (seed.Order_search.height, Placement.items seed.Order_search.placement, 0)
    in
    { height;
      placement = Placement.of_items items;
      nodes_expanded = seed.Order_search.nodes_expanded + nodes }
  end

(* Rect indices of each rect's predecessors and successors. *)
let neighbours (inst : Spp_core.Instance.Prec.t) rects =
  let idx_of = Hashtbl.create 16 in
  Array.iteri (fun i (r : Rect.t) -> Hashtbl.replace idx_of r.Rect.id i) rects;
  let around f =
    Array.map (fun (r : Rect.t) -> List.map (Hashtbl.find idx_of) (f inst.dag r.Rect.id)) rects
  in
  (around Dag.preds, around Dag.succs)

(* Root tasks: the lex-first rect of a grounded packing has no
   predecessors and sits at y = 0 (anything else would have a placed
   supporter or predecessor below it, contradicting lex-minimality), at
   any admissible x. Rects in input order, each x ascending; the array is
   the work-stealing queue. *)
let root_tasks preds xs_of =
  let acc = ref [] in
  for i = Array.length preds - 1 downto 0 do
    if preds.(i) = [] then List.iter (fun x -> acc := (i, x) :: !acc) (List.rev xs_of.(i))
  done;
  Array.of_list !acc

(* ------------------------------------------------------------------ *)
(* The search on exact rationals: the path past the grid's guard and the
   oracle for the kernel below *)

module Rational = struct
  (* Deduplicated, sorted subset sums of [values] (always includes 0). *)
  let subset_sums values =
    let sums = Hashtbl.create 64 in
    Hashtbl.replace sums (Q.to_string Q.zero) Q.zero;
    List.iter
      (fun v ->
        let current = Hashtbl.fold (fun _ s acc -> s :: acc) sums [] in
        List.iter
          (fun s ->
            let s' = Q.add s v in
            Hashtbl.replace sums (Q.to_string s') s')
          current)
      values;
    List.sort Q.compare (Hashtbl.fold (fun _ s acc -> s :: acc) sums [])

  let search ~cancel ~workers ~dominance (inst : Spp_core.Instance.Prec.t) seed =
    let rects = Array.of_list inst.rects in
    let nr = Array.length rects in
    let full_mask = (1 lsl nr) - 1 in
    let preds, succs = neighbours inst rects in
    (* Candidate x coordinates per rect: the width subset-sum grid, kept
       only where the rect still fits the strip. *)
    let xs = subset_sums (List.map (fun (r : Rect.t) -> r.Rect.w) inst.rects) in
    let xs_of =
      Array.init nr (fun i ->
          let w = rects.(i).Rect.w in
          List.filter (fun x -> Q.compare (Q.add x w) Q.one <= 0) xs)
    in
    (* tail.(i) = h_i + longest descendant chain below i: an admissible
       completion bound because every successor stacks above i's top.
       Heights are > 0, so zero doubles as the not-yet-memoised mark. *)
    let tail = Array.make nr Q.zero in
    let rec tail_of i =
      if not (Q.is_zero tail.(i)) then tail.(i)
      else begin
        let below = List.fold_left (fun acc s -> Q.max acc (tail_of s)) Q.zero succs.(i) in
        let t = Q.add rects.(i).Rect.h below in
        tail.(i) <- t;
        t
      end
    in
    for i = 0 to nr - 1 do
      ignore (tail_of i)
    done;
    (* The shared incumbent: (height, items), improved by compare-and-set.
       Stale reads only weaken pruning, never correctness, and every
       published height is an achievable packing, so pruning [h' >= best]
       can never cut a strictly better completion — which is what makes
       the final height independent of the worker count. *)
    let best =
      Atomic.make (seed.Order_search.height, Placement.items seed.Order_search.placement)
    in
    let publish h items =
      let rec loop () =
        let (bh, _) as cur = Atomic.get best in
        if Q.compare h bh < 0 && not (Atomic.compare_and_set best cur (h, items)) then loop ()
      in
      loop ()
    in
    (* One task = one root-level first placement; px/py are this task's
       scratch state (a DFS path touches each slot only while its bit is
       set in [mask]). *)
    let run_task stats seen (root_i, root_x) =
      let px = Array.make nr Q.zero and py = Array.make nr Q.zero in
      let exists_placed mask f =
        let rec go j = j < nr && ((mask land (1 lsl j) <> 0 && f j) || go (j + 1)) in
        go 0
      in
      let state_key mask =
        (* Identity matters only where constraints still reference it: a
           placed rect with every successor placed is interchangeable with
           any same-shape rect in the same spot, so those entries are
           anonymised (sid = -1) and the entry list is sorted. Equal keys
           then have identical remaining sets, floors, geometry, current
           height and lex frontier — identical completion trees. *)
        let b = Buffer.create 64 in
        Buffer.add_string b (string_of_int mask);
        let entries = ref [] in
        for j = 0 to nr - 1 do
          if mask land (1 lsl j) <> 0 then begin
            let open_succ = List.exists (fun s -> mask land (1 lsl s) = 0) succs.(j) in
            let sid = if open_succ then j else -1 in
            entries :=
              (Q.to_string px.(j) ^ "," ^ Q.to_string py.(j) ^ ","
               ^ Q.to_string rects.(j).Rect.w ^ "," ^ Q.to_string rects.(j).Rect.h ^ ","
               ^ string_of_int sid)
              :: !entries
          end
        done;
        List.iter
          (fun e ->
            Buffer.add_char b '|';
            Buffer.add_string b e)
          (List.sort compare !entries);
        Buffer.contents b
      in
      (* Rectangles are placed in strictly increasing (y, x) order of their
         origins. Some optimal packing is grounded and left-pushed; reading
         its rects in that lex order is automatically topological (a
         predecessor's top is at most its successor's bottom, and h > 0)
         and makes every rect's supporter and predecessors already placed
         when the rect is — so restricting branches to the lex frontier
         loses no optimal packing while cutting every placement-order
         permutation of the same geometry. *)
      let rec go mask cur_h ylast xlast =
        Spp_util.Cancel.check cancel;
        stats.nodes <- stats.nodes + 1;
        if mask = full_mask then begin
          let items = ref [] in
          for j = nr - 1 downto 0 do
            items :=
              { Placement.rect = rects.(j); pos = { Placement.x = px.(j); y = py.(j) } }
              :: !items
          done;
          publish cur_h !items
        end
        else begin
          let bh, _ = Atomic.get best in
          (* Node bound 1 (area, y-monotone form): every future rect sits at
             y >= ylast, so the strip above ylast must hold the remaining
             area plus what placed rects already occupy up there. *)
          let area_above = ref Q.zero in
          for j = 0 to nr - 1 do
            if mask land (1 lsl j) <> 0 then begin
              let top = Q.add py.(j) rects.(j).Rect.h in
              if Q.compare top ylast > 0 then
                area_above :=
                  Q.add !area_above (Q.mul rects.(j).Rect.w (Q.sub top (Q.max py.(j) ylast)))
            end
            else area_above := Q.add !area_above (Rect.area rects.(j))
          done;
          let lb = ref (Q.add ylast !area_above) in
          (* Node bound 2 (precedence tail): an unplaced rect starts no
             lower than the lex frontier and its placed-predecessor floor,
             and carries its descendant chain above it. *)
          for j = 0 to nr - 1 do
            if mask land (1 lsl j) = 0 then begin
              let floor_j =
                List.fold_left
                  (fun acc p ->
                    if mask land (1 lsl p) <> 0 then
                      Q.max acc (Q.add py.(p) rects.(p).Rect.h)
                    else acc)
                  Q.zero preds.(j)
              in
              lb := Q.max !lb (Q.add (Q.max ylast floor_j) tail.(j))
            end
          done;
          if Q.compare !lb bh >= 0 then stats.pruned <- stats.pruned + 1
          else if
            dominance
            &&
            let key = state_key mask in
            if Hashtbl.mem seen key then true
            else begin
              Hashtbl.replace seen key ();
              false
            end
          then stats.dominated <- stats.dominated + 1
          else
            for i = 0 to nr - 1 do
              if
                mask land (1 lsl i) = 0
                && List.for_all (fun p -> mask land (1 lsl p) <> 0) preds.(i)
              then begin
                let r = rects.(i) in
                let floor_i =
                  List.fold_left
                    (fun acc p -> Q.max acc (Q.add py.(p) rects.(p).Rect.h))
                    Q.zero preds.(i)
                in
                (* Candidate ys: the floor itself (ground or precedence
                   block) plus strictly higher placed tops (rest positions).
                   A grounded rect sits at exactly one of these. *)
                let ys =
                  let acc = ref [ floor_i ] in
                  for j = 0 to nr - 1 do
                    if mask land (1 lsl j) <> 0 then begin
                      let top = Q.add py.(j) rects.(j).Rect.h in
                      if Q.compare top floor_i > 0 && not (List.exists (Q.equal top) !acc)
                      then acc := top :: !acc
                    end
                  done;
                  List.sort Q.compare !acc
                in
                List.iter
                  (fun y ->
                    let top = Q.add y r.Rect.h in
                    let h' = Q.max cur_h top in
                    let bh, _ = Atomic.get best in
                    if Q.compare h' bh >= 0 then stats.pruned <- stats.pruned + 1
                    else
                      List.iter
                        (fun x ->
                          let c = Q.compare y ylast in
                          if c > 0 || (c = 0 && Q.compare x xlast > 0) then begin
                            let supported =
                              Q.compare y floor_i = 0
                              || (let xr = Q.add x r.Rect.w in
                                  exists_placed mask (fun j ->
                                      Q.equal (Q.add py.(j) rects.(j).Rect.h) y
                                      && Q.compare px.(j) xr < 0
                                      && Q.compare x (Q.add px.(j) rects.(j).Rect.w) < 0))
                            in
                            if supported then begin
                              let pos = { Placement.x; y } in
                              let clash =
                                exists_placed mask (fun j ->
                                    Placement.overlaps r pos rects.(j)
                                      { Placement.x = px.(j); y = py.(j) })
                              in
                              if not clash then begin
                                px.(i) <- x;
                                py.(i) <- y;
                                go (mask lor (1 lsl i)) h' y x
                              end
                            end
                          end)
                        xs_of.(i))
                  ys
              end
            done
        end
      in
      let r = rects.(root_i) in
      px.(root_i) <- root_x;
      py.(root_i) <- Q.zero;
      go (1 lsl root_i) r.Rect.h Q.zero root_x
    in
    let tasks = root_tasks preds xs_of in
    (* Each worker keeps its own dominance table: sound without sharing
       (each worker re-derives what it needs), and it keeps the hot path
       free of cross-domain traffic. *)
    let nodes =
      drain ~workers (Array.length tasks) (fun stats ->
          let seen = Hashtbl.create 256 in
          fun t -> run_task stats seen tasks.(t))
    in
    let h, items = Atomic.get best in
    (h, items, nodes)

  let solve ?(cancel = Spp_util.Cancel.never) ?(workers = 1) ?(dominance = true) inst =
    frame ~cancel inst (search ~cancel ~workers ~dominance inst)
end

(* ------------------------------------------------------------------ *)
(* The integer kernel: the same tree, node for node *)

(* One solve on the grid: x counts units of 1/[xs], y units of 1/[ys].
   Rect i is the i-th of the input list. *)
type problem = {
  rects : Rect.t array;
  xs : int;
  ys : int;
  w : int array;
  h : int array;
  area : int array;  (* w·h, in units of 1/(xs·ys) *)
  preds : int array array;
  pred_mask : int array;
  succ_mask : int array;
  tail : int array;  (* h + the longest descendant chain above *)
  xs_of : int array array;  (* candidate xs, ascending *)
  x_at : int array;  (* every candidate x, ascending *)
  y_at : int array;  (* the subset sums of the heights, ascending: every y is one *)
  anon : int array;  (* n + the first rect of rect i's shape *)
}

(* The grid scales for [inst], or [None] when the kernel cannot take it:
   a dimension outside what [Rect.make] allows, an x scale above 2^60,
   the heights' sum on the y grid above 2^60, or the x scale times that
   sum above 2^60. Every x is at most [xs] and every y at most the
   heights' sum, so each area term w·Δy, each [y·xs] and each bound
   comparison fits a native int. *)
let grid (inst : Spp_core.Instance.Prec.t) =
  let in_range (r : Rect.t) =
    Q.sign r.Rect.w > 0 && Q.compare r.Rect.w Q.one <= 0 && Q.sign r.Rect.h > 0
  in
  if not (List.for_all in_range inst.rects) then None
  else
    Scale.fits (fun () ->
        let xs = Scale.scale (List.map (fun (r : Rect.t) -> r.Rect.w) inst.rects) in
        if xs > Scale.limit then raise Scale.Off_grid;
        let ys = Scale.scale (List.map (fun (r : Rect.t) -> r.Rect.h) inst.rects) in
        let sum_h =
          List.fold_left
            (fun acc (r : Rect.t) -> Scale.add acc (Scale.to_grid ys r.Rect.h))
            0 inst.rects
        in
        ignore (Scale.mul xs sum_h : int);
        (xs, ys))

let on_grid inst = Option.is_some (grid inst)

let imax (a : int) b = if a >= b then a else b

(* Sorted, deduplicated subset sums of the positive [ws] up to [cap].
   Every sum at most [cap] extends one at most [cap], so the cut loses
   none of them: for the widths, those are the xs the strip can use;
   for the heights, whose sum the guard keeps within 2^60, all sums. *)
let subset_sums cap ws =
  Array.fold_left
    (fun sums v ->
      let up = List.filter_map (fun s -> if s + v <= cap then Some (s + v) else None) sums in
      List.sort_uniq compare (List.rev_append up sums))
    [ 0 ] ws

let problem (inst : Spp_core.Instance.Prec.t) (xs, ys) =
  let rects = Array.of_list inst.rects in
  let nr = Array.length rects in
  let preds, succs = neighbours inst rects in
  let mask = List.fold_left (fun m j -> m lor (1 lsl j)) 0 in
  let w = Array.map (fun (r : Rect.t) -> Scale.to_grid xs r.Rect.w) rects in
  let h = Array.map (fun (r : Rect.t) -> Scale.to_grid ys r.Rect.h) rects in
  let sums = subset_sums xs w in
  let first_of_shape j =
    let rec go k = if w.(k) = w.(j) && h.(k) = h.(j) then k else go (k + 1) in
    go 0
  in
  let tail = Array.make nr 0 in
  let rec tail_of i =
    if tail.(i) = 0 then
      tail.(i) <- h.(i) + List.fold_left (fun acc s -> imax acc (tail_of s)) 0 succs.(i);
    tail.(i)
  in
  for i = 0 to nr - 1 do
    ignore (tail_of i : int)
  done;
  { rects; xs; ys; w; h;
    area = Array.map2 ( * ) w h;
    preds = Array.map Array.of_list preds;
    pred_mask = Array.map mask preds;
    succ_mask = Array.map mask succs;
    tail;
    xs_of = Array.map (fun wi -> Array.of_list (List.filter (fun x -> x + wi <= xs) sums)) w;
    x_at = Array.of_list sums;
    y_at = Array.of_list (subset_sums Scale.limit h);
    anon = Array.init nr (fun j -> nr + first_of_shape j) }

(* Dominance keys: the placed mask, then one entry per placed rect, the
   entries in ascending order. *)
module Keys = Hashtbl.Make (struct
  type t = int array

  let rec equal_from (a : int array) b i =
    i = Array.length a || (a.(i) = b.(i) && equal_from a b (i + 1))

  let equal a b = Array.length a = Array.length b && equal_from a b 0

  let hash (a : int array) =
    let h = ref 0 in
    for i = 0 to Array.length a - 1 do
      h := (!h lxor a.(i)) * 1_099_511_628_211
    done;
    !h lxor (!h lsr 29)
end)

(* The shared incumbent: a grid height and the positions reaching it, or
   [None] while the seed's packing is the best. *)
type incumbent = { bh : int; at : (int array * int array) option }

(* One worker: the problem, the shared incumbent, its own counters and
   dominance table, and scratch arrays the search writes in place —
   [px]/[py] hold rect i's position while its bit is set in the mask, and
   [cand.(d)]/[keys.(d)] the candidate ys and the key of a node with d
   rects placed. *)
type worker = {
  p : problem;
  cancel : Spp_util.Cancel.t;
  dominance : bool;
  best : incumbent Atomic.t;
  stats : stats;
  seen : unit Keys.t;
  px : int array;
  py : int array;
  cand : int array array;
  keys : int array array;
}

let placed mask j = mask land (1 lsl j) <> 0

(* Rect [i]'s precedence floor: the highest top among its placed
   predecessors, 0 without one. *)
let floor wk mask i =
  let ps = wk.p.preds.(i) in
  let f = ref 0 in
  for k = 0 to Array.length ps - 1 do
    let j = ps.(k) in
    if placed mask j then f := imax !f (wk.py.(j) + wk.p.h.(j))
  done;
  !f

let rec tail_reaches wk mask ylast bh j =
  j < Array.length wk.p.rects
  && (((not (placed mask j)) && imax ylast (floor wk mask j) + wk.p.tail.(j) >= bh)
     || tail_reaches wk mask ylast bh (j + 1))

(* The node bounds of the rational search, decided the same way. Bound 1
   (area): ylast + area above >= best, both sides times xs. Bound 2
   (precedence tail): some unplaced rect, started at its floor or the lex
   frontier, carries its descendant chain to best. *)
let bounded wk mask ylast bh =
  let p = wk.p in
  let n = Array.length p.rects in
  let area = ref 0 in
  for j = 0 to n - 1 do
    if placed mask j then begin
      let top = wk.py.(j) + p.h.(j) in
      if top > ylast then area := !area + (p.w.(j) * (top - imax wk.py.(j) ylast))
    end
    else area := !area + p.area.(j)
  done;
  (ylast * p.xs) + !area >= bh * p.xs || tail_reaches wk mask ylast bh 0

(* The position of [v] in [a.(lo .. hi)], ascending and holding it. *)
let rec index (a : int array) v lo hi =
  assert (lo <= hi);
  let mid = (lo + hi) / 2 in
  if a.(mid) = v then mid
  else if a.(mid) < v then index a v (mid + 1) hi
  else index a v lo (mid - 1)

(* Whether the node's key is already in the table, adding it when not.
   The rational key's entry (x, y, w, h, sid) is packed into one int:
   y's and x's positions in [y_at] and [x_at] (below 2^9 each, n <= 9)
   and a shape code below 2n — the rect itself while a successor is
   unplaced, else [anon], so a rect whose successors are all placed is
   anonymised to its shape, as sid = -1 does. Each field is a bijection
   of the rational one, so two states get equal keys exactly when their
   rational keys are equal. Only a key that enters the table is copied. *)
let seen_before wk depth mask =
  let p = wk.p in
  let key = wk.keys.(depth) in
  key.(0) <- mask;
  let k = ref 1 in
  for j = 0 to Array.length p.rects - 1 do
    if placed mask j then begin
      let y = index p.y_at wk.py.(j) 0 (Array.length p.y_at - 1) in
      let x = index p.x_at wk.px.(j) 0 (Array.length p.x_at - 1) in
      let code = if p.succ_mask.(j) land lnot mask <> 0 then j else p.anon.(j) in
      let e = (y lsl 14) lor (x lsl 5) lor code in
      (* Insertion: move larger entries up one. *)
      let b = ref !k in
      while !b > 1 && key.(!b - 1) > e do
        key.(!b) <- key.(!b - 1);
        decr b
      done;
      key.(!b) <- e;
      incr k
    end
  done;
  Keys.mem wk.seen key
  || begin
    Keys.add wk.seen (Array.copy key) ();
    false
  end

let publish wk h =
  if h < (Atomic.get wk.best).bh then begin
    let next = { bh = h; at = Some (Array.copy wk.px, Array.copy wk.py) } in
    let rec loop () =
      let cur = Atomic.get wk.best in
      if h < cur.bh && not (Atomic.compare_and_set wk.best cur next) then loop ()
    in
    loop ()
  end

(* Rect [i] resting on a placed top at [y] over [x, xr). *)
let rec supported wk mask x xr y j =
  j < Array.length wk.p.rects
  && ((placed mask j
      && wk.py.(j) + wk.p.h.(j) = y
      && wk.px.(j) < xr
      && x < wk.px.(j) + wk.p.w.(j))
     || supported wk mask x xr y (j + 1))

(* [Placement.overlaps]' open intervals on both axes. *)
let rec clash wk mask x xr y yt j =
  j < Array.length wk.p.rects
  && ((placed mask j
      && x < wk.px.(j) + wk.p.w.(j)
      && wk.px.(j) < xr
      && y < wk.py.(j) + wk.p.h.(j)
      && wk.py.(j) < yt)
     || clash wk mask x xr y yt (j + 1))

(* [top] is none of [cand.(k .. m - 1)]. *)
let rec fresh (cand : int array) m top k = k = m || (cand.(k) <> top && fresh cand m top (k + 1))

(* [Rational.search]'s [go], decision for decision: one cancel poll and
   one node per call, the node bounds, the dominance table, then each
   ready rect's candidate ys ascending (a y whose height reaches the
   incumbent counts one prune) and its xs ascending past the lex
   frontier, supported and clash-free. *)
let rec go wk depth mask cur_h ylast xlast =
  Spp_util.Cancel.check wk.cancel;
  wk.stats.nodes <- wk.stats.nodes + 1;
  let p = wk.p in
  let n = Array.length p.rects in
  if mask = (1 lsl n) - 1 then publish wk cur_h
  else if bounded wk mask ylast (Atomic.get wk.best).bh then
    wk.stats.pruned <- wk.stats.pruned + 1
  else if wk.dominance && seen_before wk depth mask then
    wk.stats.dominated <- wk.stats.dominated + 1
  else
    for i = 0 to n - 1 do
      if (not (placed mask i)) && mask land p.pred_mask.(i) = p.pred_mask.(i) then
        children wk depth mask cur_h ylast xlast i
    done

and children wk depth mask cur_h ylast xlast i =
  let p = wk.p in
  let floor_i = floor wk mask i in
  (* The floor plus the strictly higher distinct placed tops, ascending. *)
  let cand = wk.cand.(depth) in
  cand.(0) <- floor_i;
  let m = ref 1 in
  for j = 0 to Array.length p.rects - 1 do
    if placed mask j then begin
      let top = wk.py.(j) + p.h.(j) in
      if top > floor_i && fresh cand !m top 1 then begin
        let b = ref !m in
        while cand.(!b - 1) > top do
          cand.(!b) <- cand.(!b - 1);
          decr b
        done;
        cand.(!b) <- top;
        incr m
      end
    end
  done;
  let wi = p.w.(i) and hi = p.h.(i) and xs = p.xs_of.(i) in
  for k = 0 to !m - 1 do
    let y = cand.(k) in
    let h' = imax cur_h (y + hi) in
    if h' >= (Atomic.get wk.best).bh then wk.stats.pruned <- wk.stats.pruned + 1
    else if y >= ylast then
      for t = 0 to Array.length xs - 1 do
        let x = xs.(t) in
        if
          (y > ylast || x > xlast)
          && (y = floor_i || supported wk mask x (x + wi) y 0)
          && not (clash wk mask x (x + wi) y (y + hi) 0)
        then begin
          wk.px.(i) <- x;
          wk.py.(i) <- y;
          go wk (depth + 1) (mask lor (1 lsl i)) h' y x
        end
      done
  done

let kernel_search ~cancel ~workers ~dominance p seed =
  let n = Array.length p.rects in
  let best =
    Atomic.make { bh = Scale.to_grid p.ys seed.Order_search.height; at = None }
  in
  let tasks =
    root_tasks (Array.map Array.to_list p.preds) (Array.map Array.to_list p.xs_of)
  in
  let nodes =
    drain ~workers (Array.length tasks) (fun stats ->
        let wk =
          { p; cancel; dominance; best; stats;
            seen = Keys.create 256;
            px = Array.make n 0;
            py = Array.make n 0;
            cand = Array.init (n + 1) (fun _ -> Array.make (n + 1) 0);
            keys = Array.init (n + 1) (fun d -> Array.make (1 + d) 0) }
        in
        fun t ->
          let i, x = tasks.(t) in
          wk.px.(i) <- x;
          wk.py.(i) <- 0;
          go wk 1 (1 lsl i) p.h.(i) 0 x)
  in
  match (Atomic.get best).at with
  | None -> (seed.Order_search.height, Placement.items seed.Order_search.placement, nodes)
  | Some (px, py) ->
    let item j r =
      { Placement.rect = r;
        pos = { Placement.x = Scale.of_grid p.xs px.(j); y = Scale.of_grid p.ys py.(j) } }
    in
    (Scale.of_grid p.ys (Atomic.get best).bh, Array.to_list (Array.mapi item p.rects), nodes)

let solve ?(cancel = Spp_util.Cancel.never) ?(workers = 1) ?(dominance = true) inst =
  match grid inst with
  | Some scales ->
    frame ~cancel inst (fun seed ->
        kernel_search ~cancel ~workers ~dominance (problem inst scales) seed)
  | None -> Rational.solve ~cancel ~workers ~dominance inst
