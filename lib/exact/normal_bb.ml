module Q = Spp_num.Rat
module Rect = Spp_geom.Rect
module Placement = Spp_geom.Placement
module Dag = Spp_dag.Dag

type outcome = { height : Q.t; placement : Placement.t; nodes_expanded : int }

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

let max_n = 9

(* Per-worker search counters, mutated race-free by exactly one domain and
   summed by the caller after the joins (Domain.join is the happens-before
   edge), so the ambient profile is reported on the engine's domain. *)
type stats = { mutable nodes : int; mutable pruned : int; mutable dominated : int }

let solve ?(cancel = Spp_util.Cancel.never) ?(workers = 1) ?(dominance = true)
    (inst : Spp_core.Instance.Prec.t) =
  let n = Spp_core.Instance.Prec.size inst in
  if n > max_n then invalid_arg "Normal_bb.solve: instance too large (n > 9)";
  if n = 0 then { height = Q.zero; placement = Placement.of_items []; nodes_expanded = 0 }
  else begin
    let rects = Array.of_list inst.rects in
    let nr = Array.length rects in
    let full_mask = (1 lsl nr) - 1 in
    let idx_of = Hashtbl.create nr in
    Array.iteri (fun i (r : Rect.t) -> Hashtbl.replace idx_of r.Rect.id i) rects;
    let preds =
      Array.init nr (fun i ->
          List.map (Hashtbl.find idx_of) (Dag.preds inst.dag rects.(i).Rect.id))
    in
    let succs =
      Array.init nr (fun i ->
          List.map (Hashtbl.find idx_of) (Dag.succs inst.dag rects.(i).Rect.id))
    in
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
    let area_lb = Rect.total_area inst.rects in
    let path_lb = Spp_core.Lower_bounds.critical_path inst in
    let global_lb = Q.max area_lb path_lb in
    (* Incumbent seed: the bottom-left order search (an upper bound). It
       runs on — and reports its own profile to — the calling domain. *)
    let seed = Order_search.best_prec ~cancel inst in
    (* The shared incumbent: (height, items), improved by compare-and-set.
       Stale reads only weaken pruning, never correctness, and every
       published height is an achievable packing, so pruning [h' >= best]
       can never cut a strictly better completion — which is what makes
       the final height independent of the worker count. *)
    let best = Atomic.make (seed.Order_search.height, Placement.items seed.Order_search.placement) in
    let publish h items =
      let rec loop () =
        let (bh, _) as cur = Atomic.get best in
        if Q.compare h bh < 0 && not (Atomic.compare_and_set best cur (h, items)) then loop ()
      in
      loop ()
    in
    (* One task = one root-level first placement; px/py are this worker's
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
    (* Root tasks: the lex-first rect of a grounded packing has no
       predecessors and sits at y = 0 (anything else would have a placed
       supporter or predecessor below it, contradicting lex-minimality),
       at any admissible x. The task array is the work-stealing queue. *)
    let tasks =
      let acc = ref [] in
      for i = nr - 1 downto 0 do
        if preds.(i) = [] then List.iter (fun x -> acc := (i, x) :: !acc) (List.rev xs_of.(i))
      done;
      Array.of_list !acc
    in
    let ntasks = Array.length tasks in
    let w = Stdlib.max 1 (Stdlib.min workers ntasks) in
    let all_stats = Array.init w (fun _ -> { nodes = 0; pruned = 0; dominated = 0 }) in
    (* [w] workers drain the task counter, each with its own dominance
       table: sound without sharing (each worker re-derives what it
       needs), and it keeps the hot path free of cross-domain traffic. A
       worker that raises stops the others at their next task. *)
    let search () =
      let next = Atomic.make 0 and failed = Atomic.make false in
      let worker k =
        let seen = Hashtbl.create 256 in
        let rec loop () =
          let t = Atomic.fetch_and_add next 1 in
          if t < ntasks && not (Atomic.get failed) then begin
            (try run_task all_stats.(k) seen tasks.(t)
             with e ->
               Atomic.set failed true;
               raise e);
            loop ()
          end
        in
        loop ()
      in
      ignore (Spp_util.Parallel.map ~workers:w worker (List.init w Fun.id))
    in
    let report () =
      let nodes = Array.fold_left (fun a s -> a + s.nodes) 0 all_stats in
      Spp_obs.Profile.add_bb_nodes nodes;
      Spp_obs.Profile.add_bb_pruned (Array.fold_left (fun a s -> a + s.pruned) 0 all_stats);
      Spp_obs.Profile.add_bb_dominated
        (Array.fold_left (fun a s -> a + s.dominated) 0 all_stats);
      nodes
    in
    (* Early exit: if the seed already meets the global lower bound it is
       optimal and the search is skipped. *)
    (match if Q.compare (fst (Atomic.get best)) global_lb > 0 then search () with
     | () -> ()
     | exception e ->
       ignore (report ());
       raise e);
    let search_nodes = report () in
    let h, items = Atomic.get best in
    { height = h;
      placement = Placement.of_items items;
      nodes_expanded = seed.Order_search.nodes_expanded + search_nodes }
  end
