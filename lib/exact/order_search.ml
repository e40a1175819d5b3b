module Q = Spp_num.Rat
module Scale = Spp_num.Scale
module Rect = Spp_geom.Rect
module Placement = Spp_geom.Placement
module Skyline = Spp_geom.Skyline
module Dag = Spp_dag.Dag

type outcome = { height : Q.t; placement : Placement.t; nodes_expanded : int }

(* The list-and-rational search this module started as, kept as the
   oracle for the kernel below and as the path for inputs it cannot take. *)
module Reference = struct
  (* Generic DFS over placement orders. [eligible placed remaining] restricts
     which rect may come next; [floor_of placed r] gives its y floor. Each
     branch works on a skyline snapshot; pruning is against the incumbent. *)
  let search rects ~cancel ~eligible ~floor_of =
    let n = List.length rects in
    if n > 10 then invalid_arg "Order_search: instance too large (n > 10)";
    let best_h = ref None in
    let best_items = ref [] in
    let nodes = ref 0 in
    let pruned = ref 0 in
    let rec go placed sky h remaining =
      Spp_util.Cancel.check cancel;
      incr nodes;
      match remaining with
      | [] ->
        (match !best_h with
         | Some bh when Q.compare h bh >= 0 -> ()
         | _ ->
           best_h := Some h;
           best_items := placed)
      | _ ->
        List.iter
          (fun (r : Rect.t) ->
            let rest = List.filter (fun (r' : Rect.t) -> r'.Rect.id <> r.Rect.id) remaining in
            let sky' = Skyline.copy sky in
            let y_min = floor_of placed r in
            let pos = Skyline.place sky' ~w:r.Rect.w ~h:r.Rect.h ~y_min in
            let item = { Placement.rect = r; pos } in
            let h' = Q.max h (Q.add pos.Placement.y r.Rect.h) in
            let prune = match !best_h with Some bh -> Q.compare h' bh >= 0 | None -> false in
            if prune then incr pruned
            else go (item :: placed) sky' h' rest)
          (eligible placed remaining)
    in
    let report () =
      Spp_obs.Profile.add_bb_nodes !nodes;
      Spp_obs.Profile.add_bb_pruned !pruned
    in
    (* Aggregate profile report on every exit, cancellation included. *)
    (match go [] (Skyline.create ()) Q.zero rects with
     | () -> report ()
     | exception e ->
       report ();
       raise e);
    match !best_h with
    | None -> { height = Q.zero; placement = Placement.of_items []; nodes_expanded = !nodes }
    | Some h -> { height = h; placement = Placement.of_items !best_items; nodes_expanded = !nodes }

  let best_prec ?(cancel = Spp_util.Cancel.never) (inst : Spp_core.Instance.Prec.t) =
    let floor_of placed (r : Rect.t) =
      List.fold_left
        (fun acc p ->
          match List.find_opt (fun (it : Placement.item) -> it.rect.Rect.id = p) placed with
          | Some it -> Q.max acc (Q.add it.pos.Placement.y it.rect.Rect.h)
          | None -> acc)
        Q.zero
        (Dag.preds inst.dag r.Rect.id)
    in
    let eligible placed remaining =
      let placed_ids = List.map (fun (it : Placement.item) -> it.rect.Rect.id) placed in
      List.filter
        (fun (r : Rect.t) ->
          List.for_all (fun p -> List.mem p placed_ids) (Dag.preds inst.dag r.Rect.id))
        remaining
    in
    search inst.rects ~cancel ~eligible ~floor_of

  let best_release ?(cancel = Spp_util.Cancel.never) (inst : Spp_core.Instance.Release.t) =
    let release = Hashtbl.create 16 in
    List.iter
      (fun (t : Spp_core.Instance.Release.task) -> Hashtbl.replace release t.rect.Rect.id t.release)
      inst.tasks;
    let floor_of _placed (r : Rect.t) = Hashtbl.find release r.Rect.id in
    let eligible _placed remaining = remaining in
    search (Spp_core.Instance.Release.rects inst) ~cancel ~eligible ~floor_of
end

(* ------------------------------------------------------------------ *)
(* The integer kernel: the same tree, node for node *)

(* One solve on the integer grid: x counts units of 1/[xs], y units of
   1/[ys]. Rect i is the i-th of the input list; [preds.(i)] are indices. *)
type problem = {
  rects : Rect.t array;
  xs : int;
  ys : int;
  w : int array;
  h : int array;
  release : int array;  (* zero for precedence instances *)
  preds : int array array;
}

(* The grid for [rects] with floors [releases], or [None] when the kernel
   cannot take them: a dimension outside what [Rect.make] allows, a
   negative release, an x scale or a coordinate above 2^60, or a y scale
   past a native int. Every y is a release or a sum of heights, so
   [ys * (max release + sum of heights)] bounds them all; every x is at
   most [xs]. *)
let grid (rects : Rect.t list) releases =
  let in_range (r : Rect.t) =
    Q.sign r.Rect.w > 0 && Q.compare r.Rect.w Q.one <= 0 && Q.sign r.Rect.h > 0
  in
  if not (List.for_all in_range rects && List.for_all (fun r -> Q.sign r >= 0) releases) then None
  else
    Scale.fits (fun () ->
        let xs = Scale.scale (List.map (fun (r : Rect.t) -> r.Rect.w) rects) in
        if xs > Scale.limit then raise Scale.Off_grid;
        let ys = Scale.scale (List.map (fun (r : Rect.t) -> r.Rect.h) rects @ releases) in
        let top = List.fold_left (fun acc r -> max acc (Scale.to_grid ys r)) 0 releases in
        (* Summing the reach on the grid is the check. *)
        ignore
          (List.fold_left (fun acc (r : Rect.t) -> Scale.add acc (Scale.to_grid ys r.Rect.h)) top rects
            : int);
        (xs, ys))

let problem rects releases preds =
  match grid rects releases with
  | None -> None
  | Some (xs, ys) ->
    let rects = Array.of_list rects in
    Some
      { rects; xs; ys;
        w = Array.map (fun (r : Rect.t) -> Scale.to_grid xs r.Rect.w) rects;
        h = Array.map (fun (r : Rect.t) -> Scale.to_grid ys r.Rect.h) rects;
        release = Array.of_list (List.map (Scale.to_grid ys) releases);
        preds }

let prec_problem (inst : Spp_core.Instance.Prec.t) =
  let index = Hashtbl.create 16 in
  List.iteri (fun i (r : Rect.t) -> Hashtbl.replace index r.Rect.id i) inst.rects;
  let preds =
    Array.of_list
      (List.map
         (fun (r : Rect.t) ->
           Array.of_list (List.map (Hashtbl.find index) (Dag.preds inst.dag r.Rect.id)))
         inst.rects)
  in
  problem inst.rects (List.map (fun _ -> Q.zero) inst.rects) preds

let release_problem (inst : Spp_core.Instance.Release.t) =
  problem
    (Spp_core.Instance.Release.rects inst)
    (List.map (fun (t : Spp_core.Instance.Release.task) -> t.release) inst.tasks)
    (Array.make (Spp_core.Instance.Release.size inst) [||])

(* The DFS state. [top.(i)] is y + h of rect i while it is placed on the
   current path; [order.(d)] is the rect placed at depth d, and its
   position is the skyline's choice at level d. *)
type state = {
  p : problem;
  pred_mask : int array;
  sky : Skyline.Int.t;
  top : int array;
  order : int array;
  best_order : int array;
  best_x : int array;
  best_y : int array;
  mutable best : int;  (* max_int until the first complete packing *)
  mutable nodes : int;
  mutable pruned : int;
}

let floor st i =
  let ps = st.p.preds.(i) in
  let f = ref st.p.release.(i) in
  for k = 0 to Array.length ps - 1 do
    let t = st.top.(ps.(k)) in
    if t > !f then f := t
  done;
  !f

(* Children in input order, restricted to the rects whose predecessors
   are all placed; a child is pruned when it reaches the incumbent, and a
   leaf replaces the incumbent only when strictly lower. This is
   [Reference.search] decision for decision. *)
let rec go st cancel depth placed h =
  Spp_util.Cancel.check cancel;
  st.nodes <- st.nodes + 1;
  let n = Array.length st.order in
  if depth = n then begin
    if h < st.best then begin
      st.best <- h;
      Array.blit st.order 0 st.best_order 0 n;
      for d = 0 to n - 1 do
        st.best_x.(d) <- Skyline.Int.x st.sky ~level:d;
        st.best_y.(d) <- Skyline.Int.y st.sky ~level:d
      done
    end
  end
  else
    for i = 0 to n - 1 do
      let pm = st.pred_mask.(i) in
      if placed land (1 lsl i) = 0 && placed land pm = pm then begin
        Skyline.Int.place st.sky ~level:depth ~w:st.p.w.(i) ~h:st.p.h.(i) ~y_min:(floor st i);
        let top = Skyline.Int.y st.sky ~level:depth + st.p.h.(i) in
        let h' = if top > h then top else h in
        if h' >= st.best then st.pruned <- st.pruned + 1
        else begin
          st.top.(i) <- top;
          st.order.(depth) <- i;
          go st cancel (depth + 1) (placed lor (1 lsl i)) h'
        end
      end
    done

let run ~cancel p =
  let n = Array.length p.rects in
  let st =
    { p;
      pred_mask = Array.map (Array.fold_left (fun m j -> m lor (1 lsl j)) 0) p.preds;
      sky = Skyline.Int.create ~width:p.xs ~levels:n;
      top = Array.make n 0;
      order = Array.make n 0;
      best_order = Array.make n 0;
      best_x = Array.make n 0;
      best_y = Array.make n 0;
      best = max_int;
      nodes = 0;
      pruned = 0 }
  in
  let report () =
    Spp_obs.Profile.add_bb_nodes st.nodes;
    Spp_obs.Profile.add_bb_pruned st.pruned
  in
  (match go st cancel 0 0 0 with
   | () -> report ()
   | exception e ->
     report ();
     raise e);
  if st.best = max_int then
    { height = Q.zero; placement = Placement.of_items []; nodes_expanded = st.nodes }
  else begin
    (* Newest first, like the reference's path list. *)
    let items = ref [] in
    for d = 0 to n - 1 do
      let pos =
        { Placement.x = Scale.of_grid p.xs st.best_x.(d); y = Scale.of_grid p.ys st.best_y.(d) }
      in
      items := { Placement.rect = p.rects.(st.best_order.(d)); pos } :: !items
    done;
    { height = Scale.of_grid p.ys st.best; placement = Placement.of_items !items;
      nodes_expanded = st.nodes }
  end

let guard n = if n > 10 then invalid_arg "Order_search: instance too large (n > 10)"

let on_kernel_prec inst = Option.is_some (prec_problem inst)
let on_kernel_release inst = Option.is_some (release_problem inst)

let best_prec ?(cancel = Spp_util.Cancel.never) (inst : Spp_core.Instance.Prec.t) =
  guard (Spp_core.Instance.Prec.size inst);
  match prec_problem inst with
  | Some p -> run ~cancel p
  | None -> Reference.best_prec ~cancel inst

let best_release ?(cancel = Spp_util.Cancel.never) (inst : Spp_core.Instance.Release.t) =
  guard (Spp_core.Instance.Release.size inst);
  match release_problem inst with
  | Some p -> run ~cancel p
  | None -> Reference.best_release ~cancel inst
