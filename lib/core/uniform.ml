module Q = Spp_num.Rat
module B = Spp_num.Bigint
module Rect = Spp_geom.Rect
module Placement = Spp_geom.Placement
module Dag = Spp_dag.Dag

type shelf_stats = { shelves : int; skips : int }

let uniform_height (inst : Instance.Prec.t) =
  match inst.rects with
  | [] -> None
  | r :: rest ->
    if List.for_all (fun (r' : Rect.t) -> Q.equal r'.Rect.h r.Rect.h) rest then Some r.Rect.h
    else None

(* The empty instance has no height to disagree with; no shelf is built,
   so any [c] serves. *)
let require_uniform (inst : Instance.Prec.t) =
  match uniform_height inst with
  | Some c -> c
  | None when inst.rects = [] -> Q.one
  | None -> invalid_arg "Uniform: instance heights are not uniform"

(* Mutable shelf accumulator shared by the three algorithms. *)
type shelf = { mutable used : Q.t; mutable items : (Rect.t * Q.t) list (* (rect, x), reversed *) }

let new_shelf () = { used = Q.zero; items = [] }

let shelf_fits shelf (r : Rect.t) = Q.compare (Q.add shelf.used r.Rect.w) Q.one <= 0

let shelf_place shelf (r : Rect.t) =
  shelf.items <- (r, shelf.used) :: shelf.items;
  shelf.used <- Q.add shelf.used r.Rect.w

let shelves_to_placement c shelves =
  (* [shelves] bottom-up. *)
  let items =
    List.concat
      (List.mapi
         (fun i shelf ->
           let y = Q.mul_int c i in
           List.rev_map (fun (r, x) -> { Placement.rect = r; pos = { Placement.x; y } }) shelf.items)
         shelves)
  in
  Placement.of_items items

(* ------------------------------------------------------------------ *)
(* Algorithm F (Theorem 2.6) *)

let next_fit_shelf (inst : Instance.Prec.t) =
  let c = require_uniform inst in
  let rects = Array.of_list inst.rects in
  let n = Array.length rects in
  let pos = Hashtbl.create n in
  Array.iteri (fun i (r : Rect.t) -> Hashtbl.replace pos r.Rect.id i) rects;
  let succs =
    Array.map (fun (r : Rect.t) -> List.map (Hashtbl.find pos) (Dag.succs inst.dag r.Rect.id)) rects
  in
  (* [waiting.(i)]: predecessors of position [i] not yet on a closed shelf. *)
  let waiting = Array.make n 0 in
  Array.iter (List.iter (fun j -> waiting.(j) <- waiting.(j) + 1)) succs;
  let queue = Queue.create () (* positions *) in
  Array.iteri (fun i w -> if w = 0 then Queue.add i queue) waiting;
  let placed_count = ref 0 in
  let shelves = ref [] (* newest first *) in
  let open_shelf = ref (new_shelf ()) in
  let open_contents = ref [] (* positions on the open shelf *) in
  let skips = ref 0 in
  let close_shelf () =
    (* The rectangles this closing makes ready join the queue in input
       order, as a full scan of the input would find them. *)
    let ready =
      List.fold_left
        (fun acc i ->
          List.fold_left
            (fun acc j ->
              waiting.(j) <- waiting.(j) - 1;
              if waiting.(j) = 0 then j :: acc else acc)
            acc succs.(i))
        [] !open_contents
    in
    List.iter (fun j -> Queue.add j queue) (List.sort Int.compare ready);
    shelves := !open_shelf :: !shelves;
    open_shelf := new_shelf ();
    open_contents := []
  in
  let rec run () =
    if !placed_count < n then begin
      match Queue.peek_opt queue with
      | None ->
        incr skips;
        close_shelf ();
        run ()
      | Some i ->
        let r = rects.(i) in
        if shelf_fits !open_shelf r then begin
          ignore (Queue.pop queue);
          shelf_place !open_shelf r;
          open_contents := i :: !open_contents;
          incr placed_count;
          run ()
        end
        else begin
          close_shelf ();
          run ()
        end
    end
  in
  run ();
  (* Flush the final open shelf (not a skip: the input is exhausted). *)
  if !open_contents <> [] then shelves := !open_shelf :: !shelves;
  let shelves = List.rev !shelves in
  (shelves_to_placement c shelves, { shelves = List.length shelves; skips = !skips })

module Reference = struct
  let next_fit_shelf (inst : Instance.Prec.t) =
    let c = require_uniform inst in
    let rect_of = Hashtbl.create 16 in
    List.iter (fun (r : Rect.t) -> Hashtbl.replace rect_of r.Rect.id r) inst.rects;
    let n = Instance.Prec.size inst in
    let closed = Hashtbl.create 16 in (* id -> () once its shelf is closed *)
    let enqueued = Hashtbl.create 16 in
    let queue = Queue.create () in
    let placed_count = ref 0 in
    let shelves = ref [] (* newest first *) in
    let open_shelf = ref (new_shelf ()) in
    let open_contents = ref [] (* ids on the open shelf *) in
    let skips = ref 0 in
    let repopulate () =
      List.iter
        (fun (r : Rect.t) ->
          let id = r.Rect.id in
          if (not (Hashtbl.mem enqueued id))
             && List.for_all (Hashtbl.mem closed) (Dag.preds inst.dag id)
          then begin
            Hashtbl.replace enqueued id ();
            Queue.add id queue
          end)
        inst.rects
    in
    let close_shelf () =
      List.iter (fun id -> Hashtbl.replace closed id ()) !open_contents;
      shelves := !open_shelf :: !shelves;
      open_shelf := new_shelf ();
      open_contents := [];
      repopulate ()
    in
    repopulate ();
    let rec run () =
      if !placed_count < n then begin
        match Queue.peek_opt queue with
        | None ->
          incr skips;
          close_shelf ();
          run ()
        | Some id ->
          let r = Hashtbl.find rect_of id in
          if shelf_fits !open_shelf r then begin
            ignore (Queue.pop queue);
            shelf_place !open_shelf r;
            open_contents := id :: !open_contents;
            incr placed_count;
            run ()
          end
          else begin
            close_shelf ();
            run ()
          end
      end
    in
    run ();
    (* Flush the final open shelf (not a skip: the input is exhausted). *)
    if !open_contents <> [] then shelves := !open_shelf :: !shelves;
    let shelves = List.rev !shelves in
    (shelves_to_placement c shelves, { shelves = List.length shelves; skips = !skips })
end

(* ------------------------------------------------------------------ *)
(* GGJY-style precedence first fit *)

let prec_first_fit (inst : Instance.Prec.t) =
  let c = require_uniform inst in
  let rect_of = Hashtbl.create 16 in
  List.iter (fun (r : Rect.t) -> Hashtbl.replace rect_of r.Rect.id r) inst.rects;
  let shelf_of = Hashtbl.create 16 in
  let shelves = ref [||] in
  let ensure idx =
    while Array.length !shelves <= idx do
      shelves := Array.append !shelves [| new_shelf () |]
    done
  in
  List.iter
    (fun id ->
      let r = Hashtbl.find rect_of id in
      let lo =
        List.fold_left (fun acc p -> max acc (Hashtbl.find shelf_of p + 1)) 0 (Dag.preds inst.dag id)
      in
      let rec find idx =
        ensure idx;
        if shelf_fits !shelves.(idx) r then idx else find (idx + 1)
      in
      let idx = find lo in
      shelf_place !shelves.(idx) r;
      Hashtbl.replace shelf_of id idx)
    (Dag.topo_order inst.dag);
  let shelves = Array.to_list !shelves in
  (shelves_to_placement c shelves, { shelves = List.length shelves; skips = 0 })

(* ------------------------------------------------------------------ *)
(* Wave FFD baseline *)

let wave_ffd (inst : Instance.Prec.t) =
  let c = require_uniform inst in
  let rect_of = Hashtbl.create 16 in
  List.iter (fun (r : Rect.t) -> Hashtbl.replace rect_of r.Rect.id r) inst.rects;
  let placed = Hashtbl.create 16 in
  let remaining = ref (List.map (fun (r : Rect.t) -> r.Rect.id) inst.rects) in
  let shelves = ref [] in
  while !remaining <> [] do
    let available, blocked =
      List.partition (fun id -> List.for_all (Hashtbl.mem placed) (Dag.preds inst.dag id)) !remaining
    in
    assert (available <> []);
    let items =
      List.map (fun id -> { Spp_pack.Binpack.id; size = (Hashtbl.find rect_of id).Rect.w }) available
    in
    let bins = Spp_pack.Binpack.first_fit_decreasing items in
    List.iter
      (fun bin ->
        let shelf = new_shelf () in
        List.iter (fun id -> shelf_place shelf (Hashtbl.find rect_of id)) bin;
        shelves := shelf :: !shelves)
      bins;
    List.iter (fun id -> Hashtbl.replace placed id ()) available;
    remaining := blocked
  done;
  let shelves = List.rev !shelves in
  (shelves_to_placement c shelves, { shelves = List.length shelves; skips = 0 })

(* ------------------------------------------------------------------ *)
(* Slide-down normalisation *)

let slide_down (inst : Instance.Prec.t) placement =
  let c = require_uniform inst in
  let snapped =
    List.map
      (fun (it : Placement.item) ->
        let shelf_index = Q.floor (Q.div it.pos.Placement.y c) in
        let y = Q.mul c (Q.of_bigint shelf_index) in
        { it with pos = { it.pos with Placement.y } })
      (Placement.items placement)
  in
  Placement.of_items snapped

(* ------------------------------------------------------------------ *)
(* Theorem 2.6 shelf colouring *)

let red_green_decomposition (inst : Instance.Prec.t) placement =
  let c = require_uniform inst in
  (* Width mass per shelf; items must be shelf-aligned. *)
  let widths = Hashtbl.create 16 in
  List.iter
    (fun (it : Placement.item) ->
      let q = Q.div it.pos.Placement.y c in
      let idx = Q.floor q in
      if not (Q.equal (Q.of_bigint idx) q) then
        invalid_arg "Uniform.red_green_decomposition: placement is not a shelf solution";
      let i = B.to_int_exn idx in
      let cur = Option.value ~default:Q.zero (Hashtbl.find_opt widths i) in
      Hashtbl.replace widths i (Q.add cur it.rect.Rect.w))
    (Placement.items placement);
  let top = Hashtbl.fold (fun i _ acc -> max acc (i + 1)) widths 0 in
  let width_of i = Option.value ~default:Q.zero (Hashtbl.find_opt widths i) in
  let rec sweep i (reds, greens) =
    if i >= top then (reds, greens)
    else begin
      let pair = Q.add (width_of i) (width_of (i + 1)) in
      if i + 1 < top && Q.compare pair Q.one >= 0 then sweep (i + 2) (reds + 2, greens)
      else sweep (i + 1) (reds, greens + 1)
    end
  in
  sweep 0 (0, 0)
