module Q = Spp_num.Rat
module Scale = Spp_num.Scale
module Rect = Spp_geom.Rect
module Placement = Spp_geom.Placement
module Grid = Placement.Grid
module Dag = Spp_dag.Dag

type violation =
  | Geometric of Placement.violation
  | Missing_rect of int
  | Extra_rect of int
  | Dimension_changed of int
  | Precedence of int * int
  | Release of int

let pp_violation fmt = function
  | Geometric v -> Placement.pp_violation fmt v
  | Missing_rect id -> Format.fprintf fmt "rect #%d missing from placement" id
  | Extra_rect id -> Format.fprintf fmt "rect #%d not part of the instance" id
  | Dimension_changed id -> Format.fprintf fmt "rect #%d placed with altered dimensions" id
  | Precedence (u, v) -> Format.fprintf fmt "precedence edge (%d,%d) violated" u v
  | Release id -> Format.fprintf fmt "rect #%d placed before its release time" id

(* The position of each placed item in placement order, by rect id. *)
let positions items =
  let pos = Hashtbl.create (Array.length items) in
  Array.iteri (fun i (it : Placement.item) -> Hashtbl.replace pos it.rect.Rect.id i) items;
  pos

(* Coverage and dimension checks shared by both variants: the instance's
   rects in instance order, then the items it lacks in placement order.
   Ids are distinct on both sides, so there are extras exactly when fewer
   rects than items were found. *)
let check_cover rects (items : Placement.item array) pos =
  let violations = ref [] in
  let found = ref 0 in
  List.iter
    (fun (r : Rect.t) ->
      match Hashtbl.find_opt pos r.Rect.id with
      | None -> violations := Missing_rect r.Rect.id :: !violations
      | Some i ->
        incr found;
        let placed = items.(i).rect in
        if not (Q.equal placed.Rect.w r.Rect.w && Q.equal placed.Rect.h r.Rect.h) then
          violations := Dimension_changed r.Rect.id :: !violations)
    rects;
  if !found < Array.length items then begin
    let expected = Hashtbl.create 16 in
    List.iter (fun (r : Rect.t) -> Hashtbl.replace expected r.Rect.id ()) rects;
    Array.iter
      (fun (it : Placement.item) ->
        if not (Hashtbl.mem expected it.rect.Rect.id) then
          violations := Extra_rect it.rect.Rect.id :: !violations)
      items
  end;
  List.rev !violations

let geometric violations = List.map (fun v -> Geometric v) violations

(* One [Precedence (u, v)] per edge, in [Dag.edges] order, with both ends
   placed ([find] them; a missing end is already a [Missing_rect]) and
   [late] (u's top above v's bottom). *)
let prec_violations find late dag =
  let violations = ref [] in
  Dag.iter_edges dag (fun u v ->
      match find u with
      | None -> ()
      | Some a -> (
        match find v with
        | Some b when late a b -> violations := Precedence (u, v) :: !violations
        | _ -> ()));
  List.rev !violations

(* One [Release id] per placed task, in instance order, that is [early]
   (given the task's index, the task and its placed item). *)
let release_violations find early tasks =
  List.filteri
    (fun k (task : Instance.Release.task) ->
      match find task.rect.Rect.id with Some a -> early k task a | None -> false)
    tasks
  |> List.map (fun (task : Instance.Release.task) -> Release task.rect.Rect.id)

(* The tests on rationals: [a]'s top above [b]'s bottom, and [it] below
   [task]'s release time. *)
let late (a : Placement.item) (b : Placement.item) =
  Q.compare (Q.add a.pos.Placement.y a.rect.Rect.h) b.pos.Placement.y > 0

let early (task : Instance.Release.task) (it : Placement.item) =
  Q.compare it.pos.Placement.y task.release < 0

let check_prec (inst : Instance.Prec.t) placement =
  let items = Array.of_list (Placement.items placement) in
  let pos = positions items in
  let grid = Scale.fits (fun () -> Grid.make items) in
  let late =
    match grid with
    | Some g -> fun i j -> g.y.(i) + g.h.(i) > g.y.(j)
    | None -> fun i j -> late items.(i) items.(j)
  in
  check_cover inst.rects items pos
  @ geometric (Grid.check items grid)
  @ prec_violations (Hashtbl.find_opt pos) late inst.dag

let is_valid_prec inst placement = check_prec inst placement = []

(* The placement's grids with the y scale also covering the release
   times, and the release times on it in instance order. *)
let release_grid (inst : Instance.Release.t) items =
  Scale.fits (fun () ->
      let tasks = inst.tasks in
      let g =
        Grid.make ~sy:(List.fold_left (fun s (t : Instance.Release.task) -> Scale.extend s t.release) 1 tasks)
          items
      in
      (g, Array.of_list (List.map (fun (t : Instance.Release.task) -> Scale.to_grid g.sy t.release) tasks)))

let check_release (inst : Instance.Release.t) placement =
  let items = Array.of_list (Placement.items placement) in
  let pos = positions items in
  let on_grid = release_grid inst items in
  let early =
    match on_grid with
    | Some (g, releases) -> fun k _ i -> g.y.(i) < releases.(k)
    | None -> fun _ task i -> early task items.(i)
  in
  check_cover (Instance.Release.rects inst) items pos
  @ geometric (Grid.check items (Option.map fst on_grid))
  @ release_violations (Hashtbl.find_opt pos) early inst.tasks

let is_valid_release inst placement = check_release inst placement = []

let on_grid_release inst placement =
  Option.is_some (release_grid inst (Array.of_list (Placement.items placement)))

module Reference = struct
  let find placement id = Placement.find placement ~id

  let cover rects placement =
    let items = Array.of_list (Placement.items placement) in
    check_cover rects items (positions items)

  let check_prec (inst : Instance.Prec.t) placement =
    cover inst.rects placement
    @ geometric (Placement.Reference.check placement)
    @ prec_violations (find placement) late inst.dag

  let check_release (inst : Instance.Release.t) placement =
    cover (Instance.Release.rects inst) placement
    @ geometric (Placement.Reference.check placement)
    @ release_violations (find placement) (fun _ -> early) inst.tasks
end
