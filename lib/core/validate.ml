module Q = Spp_num.Rat
module Rect = Spp_geom.Rect
module Placement = Spp_geom.Placement
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

(* The placed items by rect id, built once per check. *)
let items_by_id placement =
  let placed = Hashtbl.create 16 in
  List.iter
    (fun (it : Placement.item) -> Hashtbl.replace placed it.rect.Rect.id it)
    (Placement.items placement);
  placed

(* Coverage and dimension checks shared by both variants. *)
let check_cover rects placed =
  let violations = ref [] in
  let expected = Hashtbl.create 16 in
  List.iter
    (fun (r : Rect.t) ->
      Hashtbl.replace expected r.Rect.id ();
      match Hashtbl.find_opt placed r.Rect.id with
      | None -> violations := Missing_rect r.Rect.id :: !violations
      | Some (it : Placement.item) ->
        if not (Q.equal it.rect.Rect.w r.Rect.w && Q.equal it.rect.Rect.h r.Rect.h) then
          violations := Dimension_changed r.Rect.id :: !violations)
    rects;
  Hashtbl.iter
    (fun id _ -> if not (Hashtbl.mem expected id) then violations := Extra_rect id :: !violations)
    placed;
  List.rev !violations

let geometric check placement = List.map (fun v -> Geometric v) (check placement)

(* [find id] is the placed item for rect [id]; the checks below take it as
   an argument so the reference can keep its linear [Placement.find]. *)
let prec_violations find (inst : Instance.Prec.t) =
  List.filter_map
    (fun (u, v) ->
      match (find u, find v) with
      | Some (iu : Placement.item), Some (iv : Placement.item) ->
        let top_u = Q.add iu.pos.Placement.y iu.rect.Rect.h in
        if Q.compare top_u iv.pos.Placement.y > 0 then Some (Precedence (u, v)) else None
      | _ -> None (* already reported as Missing_rect *))
    (Dag.edges inst.dag)

let release_violations find (inst : Instance.Release.t) =
  List.filter_map
    (fun (task : Instance.Release.task) ->
      match find task.rect.Rect.id with
      | Some (it : Placement.item) ->
        if Q.compare it.pos.Placement.y task.release < 0 then Some (Release task.rect.Rect.id)
        else None
      | None -> None)
    inst.tasks

let check_prec (inst : Instance.Prec.t) placement =
  let placed = items_by_id placement in
  check_cover inst.rects placed
  @ geometric Placement.check placement
  @ prec_violations (Hashtbl.find_opt placed) inst

let is_valid_prec inst placement = check_prec inst placement = []

let check_release (inst : Instance.Release.t) placement =
  let placed = items_by_id placement in
  check_cover (Instance.Release.rects inst) placed
  @ geometric Placement.check placement
  @ release_violations (Hashtbl.find_opt placed) inst

let is_valid_release inst placement = check_release inst placement = []

module Reference = struct
  let find placement id = Placement.find placement ~id

  let check_prec (inst : Instance.Prec.t) placement =
    check_cover inst.rects (items_by_id placement)
    @ geometric Placement.Reference.check placement
    @ prec_violations (find placement) inst

  let check_release (inst : Instance.Release.t) placement =
    check_cover (Instance.Release.rects inst) (items_by_id placement)
    @ geometric Placement.Reference.check placement
    @ release_violations (find placement) inst
end
