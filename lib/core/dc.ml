module Q = Spp_num.Rat
module Scale = Spp_num.Scale
module Rect = Spp_geom.Rect
module Placement = Spp_geom.Placement
module Dag = Spp_dag.Dag

type stats = { levels : int; mid_calls : int }

type band = Bot | Mid | Top

(* F per position: on the height grid when the instance fits it, as
   rationals otherwise. *)
type f = Grid of { heights : int array; f : int array } | Rat of Q.t array

(* One array view for a whole recursion: rectangles by input position,
   predecessors as positions, every position in one topological order,
   and F and the band of each position of the current call. *)
type view = {
  rects : Rect.t array;
  preds : int array array;
  topo : int array;
  f : f;
  band : band array;
  stamp : int array; (* [stamp.(i) = call] marks the positions of call [call]'s subset *)
}

(* Heights times the lcm of their denominators, when every one is
   positive and their sum is at most 2^60: then 0 < F <= sum and 2F
   cannot wrap. *)
let grid_heights rects =
  Scale.fits (fun () ->
      let s = Array.fold_left (fun s (r : Rect.t) -> Scale.extend s r.Rect.h) 1 rects in
      let heights = Array.map (fun (r : Rect.t) -> Scale.to_grid s r.Rect.h) rects in
      if Array.exists (fun h -> h <= 0) heights then raise Scale.Off_grid;
      ignore (Array.fold_left Scale.add 0 heights : int);
      heights)

let on_grid (inst : Instance.Prec.t) = Option.is_some (grid_heights (Array.of_list inst.rects))

(* Kahn's algorithm over the predecessor arrays, first in, first out. F
   does not depend on which topological order it is computed in. *)
let topological preds =
  let n = Array.length preds in
  let indeg = Array.map Array.length preds in
  (* The successors of [u] at [succ.(first.(u) .. first.(u + 1) - 1)]. *)
  let first = Array.make (n + 1) 0 in
  Array.iter (Array.iter (fun u -> first.(u + 1) <- first.(u + 1) + 1)) preds;
  for u = 1 to n do
    first.(u) <- first.(u) + first.(u - 1)
  done;
  let fill = Array.sub first 0 n in
  let succ = Array.make first.(n) 0 in
  Array.iteri
    (fun v ->
      Array.iter (fun u ->
          succ.(fill.(u)) <- v;
          fill.(u) <- fill.(u) + 1))
    preds;
  let order = Array.make n 0 in
  let tail = ref 0 in
  let push v =
    order.(!tail) <- v;
    incr tail
  in
  Array.iteri (fun v d -> if d = 0 then push v) indeg;
  (* Acyclic: the queue is never empty before every position is in. *)
  for head = 0 to n - 1 do
    let u = order.(head) in
    for k = first.(u) to first.(u + 1) - 1 do
      let v = succ.(k) in
      indeg.(v) <- indeg.(v) - 1;
      if indeg.(v) = 0 then push v
    done
  done;
  order

let view (inst : Instance.Prec.t) =
  let rects = Array.of_list inst.rects in
  let n = Array.length rects in
  let pos = Hashtbl.create n in
  Array.iteri (fun i (r : Rect.t) -> Hashtbl.replace pos r.Rect.id i) rects;
  let preds =
    Array.map
      (fun (r : Rect.t) -> Array.of_list (List.map (Hashtbl.find pos) (Dag.preds inst.dag r.Rect.id)))
      rects
  in
  let f =
    match grid_heights rects with
    | Some heights -> Grid { heights; f = Array.make n 0 }
    | None -> Rat (Array.make n Q.zero)
  in
  { rects; preds; topo = topological preds; f; band = Array.make n Bot; stamp = Array.make n 0 }

(* Lines 2-6 of Algorithm 1 on call [call]'s subset ([in_order], and
   [topo] in topological order): F on the induced sub-DAG, in one pass
   in topological order where predecessors outside the subset do not
   count, then each position's band against H = max F: bottom when
   F <= H/2, top when F - h > H/2, middle otherwise. *)
let bands v call in_order topo =
  Array.iter (fun i -> v.stamp.(i) <- call) in_order;
  match v.f with
  | Grid { heights; f } ->
    for t = 0 to Array.length topo - 1 do
      let i = topo.(t) in
      let preds = v.preds.(i) in
      let best = ref 0 in
      for k = 0 to Array.length preds - 1 do
        let p = preds.(k) in
        if v.stamp.(p) = call && f.(p) > !best then best := f.(p)
      done;
      f.(i) <- heights.(i) + !best
    done;
    let h = Array.fold_left (fun acc i -> Int.max acc f.(i)) 0 in_order in
    Array.iter
      (fun i ->
        v.band.(i) <-
          (if 2 * f.(i) <= h then Bot else if 2 * (f.(i) - heights.(i)) > h then Top else Mid))
      in_order
  | Rat f ->
    Array.iter
      (fun i ->
        let best = ref Q.zero in
        Array.iter (fun p -> if v.stamp.(p) = call then best := Q.max !best f.(p)) v.preds.(i);
        f.(i) <- Q.add v.rects.(i).Rect.h !best)
      topo;
    let h = Array.fold_left (fun acc i -> Q.max acc f.(i)) Q.zero in_order in
    let half = Q.div h Q.two in
    Array.iter
      (fun i ->
        let fr = f.(i) in
        v.band.(i) <-
          (if Q.compare fr half <= 0 then Bot
           else if Q.compare (Q.sub fr v.rects.(i).Rect.h) half > 0 then Top
           else Mid))
      in_order

let split (inst : Instance.Prec.t) =
  let v = view inst in
  let all = Array.init (Array.length v.rects) Fun.id in
  bands v 1 all v.topo;
  let ids b =
    Array.fold_right (fun i acc -> if v.band.(i) = b then v.rects.(i).Rect.id :: acc else acc) all []
  in
  (ids Bot, ids Mid, ids Top)

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
  (* A sub-instance is a set of positions kept twice, in input order and
     in topological order; filtering keeps both. *)
  let v = view inst in
  let band = v.band in
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
      bands v call in_order topo;
      let mid_rects =
        Array.fold_right (fun i acc -> if band.(i) = Mid then v.rects.(i) :: acc else acc) in_order []
      in
      (* No edge of the sub-DAG joins two middle rectangles. *)
      let mid_independent () =
        Array.for_all
          (fun i ->
            band.(i) <> Mid
            || Array.for_all (fun p -> v.stamp.(p) <> call || band.(p) <> Mid) v.preds.(i))
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
  ignore (go (Array.init (Array.length v.rects) Fun.id) v.topo 0 Q.zero);
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

let height inst = Spp_geom.Placement.height (fst (pack inst))

let theorem_2_3_bound inst =
  let n = float_of_int (Instance.Prec.size inst) in
  let f = Q.to_float (Lower_bounds.critical_path inst) in
  let area = Q.to_float (Lower_bounds.area inst) in
  (Float.log (n +. 1.0) /. Float.log 2.0 *. f) +. (2.0 *. area)
