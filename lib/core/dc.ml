module Q = Spp_num.Rat
module Rect = Spp_geom.Rect
module Placement = Spp_geom.Placement
module Dag = Spp_dag.Dag

type stats = { levels : int; mid_calls : int }

(* Lines 2-6 of Algorithm 1: the three bands of the critical-path split. *)
let split (inst : Instance.Prec.t) =
  if inst.rects = [] then ([], [], [])
  else begin
    let heights = Hashtbl.create (List.length inst.rects) in
    List.iter (fun (r : Rect.t) -> Hashtbl.replace heights r.Rect.id r.Rect.h) inst.rects;
    let f = Dag.longest_path_to inst.dag ~weight:(Hashtbl.find heights) in
    let h = List.fold_left (fun acc (r : Rect.t) -> Q.max acc (f r.Rect.id)) Q.zero inst.rects in
    let half = Q.div h Q.two in
    List.fold_right
      (fun (r : Rect.t) (bot, mid, top) ->
        let fr = f r.Rect.id in
        if Q.compare fr half <= 0 then (r.Rect.id :: bot, mid, top)
        else if Q.compare (Q.sub fr r.Rect.h) half > 0 then (bot, mid, r.Rect.id :: top)
        else (bot, r.Rect.id :: mid, top))
      inst.rects ([], [], [])
  end

type band = Bot | Mid | Top

(* The positions of [a] whose band is [b], in [a]'s order. *)
let filter_band band b a =
  let out = Array.make (Array.fold_left (fun k i -> if band.(i) = b then k + 1 else k) 0 a) 0 in
  let j = ref 0 in
  Array.iter
    (fun i ->
      if band.(i) = b then begin
        out.(!j) <- i;
        incr j
      end)
    a;
  out

let pack ?(subroutine = Spp_pack.Level.nfdh) (inst : Instance.Prec.t) =
  (* One array view for the whole recursion: rectangles by input
     position, predecessors as positions, and every position in one
     topological order. A sub-instance is a set of positions kept twice,
     in input order and in topological order; filtering keeps both. *)
  let rects = Array.of_list inst.rects in
  let n = Array.length rects in
  let pos = Hashtbl.create n in
  Array.iteri (fun i (r : Rect.t) -> Hashtbl.replace pos r.Rect.id i) rects;
  let position id = Hashtbl.find pos id in
  let preds =
    Array.map (fun (r : Rect.t) -> Array.of_list (List.map position (Dag.preds inst.dag r.Rect.id))) rects
  in
  let f = Array.make n Q.zero in
  let band = Array.make n Bot in
  (* [stamp.(i) = call] marks the positions of the current call's subset. *)
  let stamp = Array.make n 0 in
  let mid_calls = ref 0 (* one per non-empty call, which also numbers the calls *) in
  let max_level = ref 0 in
  let placed = ref [] (* items, newest first: bottom band, middle, top *) in
  (* Packs the subset from y = [base] up and returns its top. *)
  let rec go in_order topo level base =
    max_level := max !max_level level;
    if Array.length in_order = 0 then base
    else begin
      incr mid_calls;
      let call = !mid_calls in
      Array.iter (fun i -> stamp.(i) <- call) in_order;
      (* Line 2: F on the induced sub-DAG, in one pass over the subset in
         topological order; predecessors outside the subset do not count. *)
      Array.iter
        (fun i ->
          let best = ref Q.zero in
          Array.iter (fun p -> if stamp.(p) = call then best := Q.max !best f.(p)) preds.(i);
          f.(i) <- Q.add rects.(i).Rect.h !best)
        topo;
      let h = Array.fold_left (fun acc i -> Q.max acc f.(i)) Q.zero in_order in
      let half = Q.div h Q.two in
      Array.iter
        (fun i ->
          let fr = f.(i) in
          band.(i) <-
            (if Q.compare fr half <= 0 then Bot
             else if Q.compare (Q.sub fr rects.(i).Rect.h) half > 0 then Top
             else Mid))
        in_order;
      let mid_rects =
        Array.fold_right (fun i acc -> if band.(i) = Mid then rects.(i) :: acc else acc) in_order []
      in
      (* No edge of the sub-DAG joins two middle rectangles. *)
      let mid_independent () =
        Array.for_all
          (fun i ->
            band.(i) <> Mid || Array.for_all (fun p -> stamp.(p) <> call || band.(p) <> Mid) preds.(i))
          in_order
      in
      assert (mid_rects <> []) (* Lemma 2.2 *);
      assert (mid_independent ()) (* Lemma 2.1 *);
      (* The bottom band's recursion rewrites [band]: take the top band first. *)
      let top_in_order = filter_band band Top in_order and top_topo = filter_band band Top topo in
      let mid_base = go (filter_band band Bot in_order) (filter_band band Bot topo) (level + 1) base in
      let p_mid = subroutine mid_rects in
      List.iter
        (fun (it : Placement.item) ->
          placed :=
            { it with pos = { it.pos with Placement.y = Q.add it.pos.Placement.y mid_base } }
            :: !placed)
        (Placement.items p_mid);
      go top_in_order top_topo (level + 1) (Q.add mid_base (Placement.height p_mid))
    end
  in
  let topo = Array.of_list (List.map position (Dag.topo_order inst.dag)) in
  ignore (go (Array.init n Fun.id) topo 0 Q.zero);
  (Placement.of_items (List.rev !placed), { levels = !max_level; mid_calls = !mid_calls })

module Reference = struct
  let pack ?(subroutine = Spp_pack.Level.nfdh) (inst : Instance.Prec.t) =
    let mid_calls = ref 0 in
    let max_level = ref 0 in
    (* Returns a placement based at y = 0; the caller stacks by shifting. *)
    let rec go (inst : Instance.Prec.t) level =
      max_level := max !max_level level;
      if inst.rects = [] then Placement.of_items []
      else begin
        (* Line 2: recompute F on the induced sub-DAG. *)
        let heights = Hashtbl.create (List.length inst.rects) in
        List.iter (fun (r : Rect.t) -> Hashtbl.replace heights r.Rect.id r.Rect.h) inst.rects;
        let f = Dag.longest_path_to inst.dag ~weight:(Hashtbl.find heights) in
        let h = List.fold_left (fun acc (r : Rect.t) -> Q.max acc (f r.Rect.id)) Q.zero inst.rects in
        let half = Q.div h Q.two in
        let band_of (r : Rect.t) =
          let fr = f r.Rect.id in
          if Q.compare fr half <= 0 then `Bot
          else if Q.compare (Q.sub fr r.Rect.h) half > 0 then `Top
          else `Mid
        in
        let mid = List.filter (fun r -> band_of r = `Mid) inst.rects in
        let ids_of band =
          let tbl = Hashtbl.create 16 in
          List.iter
            (fun (r : Rect.t) -> if band_of r = band then Hashtbl.replace tbl r.Rect.id ())
            inst.rects;
          Hashtbl.mem tbl
        in
        let mid_ids = ids_of `Mid in
        assert (mid <> []) (* Lemma 2.2 *);
        assert (Dag.independent inst.dag mid_ids) (* Lemma 2.1 *);
        incr mid_calls;
        let p_bot = go (Instance.Prec.induced inst (ids_of `Bot)) (level + 1) in
        let p_mid = subroutine mid in
        let p_top = go (Instance.Prec.induced inst (ids_of `Top)) (level + 1) in
        let h_bot = Placement.height p_bot in
        let h_mid = Placement.height p_mid in
        let p_mid = Placement.shift_y p_mid h_bot in
        let p_top = Placement.shift_y p_top (Q.add h_bot h_mid) in
        Placement.union (Placement.union p_bot p_mid) p_top
      end
    in
    let placement = go inst 0 in
    (placement, { levels = !max_level; mid_calls = !mid_calls })
end

let height ?subroutine inst = Spp_geom.Placement.height (fst (pack ?subroutine inst))

let theorem_2_3_bound inst =
  let n = float_of_int (Instance.Prec.size inst) in
  let f = Q.to_float (Lower_bounds.critical_path inst) in
  let area = Q.to_float (Lower_bounds.area inst) in
  (Float.log (n +. 1.0) /. Float.log 2.0 *. f) +. (2.0 *. area)
