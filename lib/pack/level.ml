module Q = Spp_num.Rat
module Rect = Spp_geom.Rect
module Placement = Spp_geom.Placement

(* A level: base height, height of its tallest (first) rect, used width,
   and placed items (accumulated in reverse). *)
type level = {
  base : Q.t;
  lheight : Q.t;
  mutable used : Q.t;
  mutable contents : Placement.item list;
}

let place_on level (r : Rect.t) =
  let item = { Placement.rect = r; pos = { Placement.x = level.used; y = level.base } } in
  level.used <- Q.add level.used r.Rect.w;
  level.contents <- item :: level.contents

let fits level (r : Rect.t) = Q.compare (Q.add level.used r.Rect.w) Q.one <= 0

(* Generic decreasing-height shelf packer parameterised by the level-choice
   policy. [choose levels r] returns the receiving level or None for a new
   one. Levels are kept in creation order (bottom to top). *)
let shelf_pack ~choose rects =
  let sorted = Rect.sort_by_height_desc rects in
  let levels = ref [] (* reversed: newest first *) in
  let top = ref Q.zero in
  List.iter
    (fun r ->
      match choose (List.rev !levels) r with
      | Some level -> place_on level r
      | None ->
        let level = { base = !top; lheight = r.Rect.h; used = Q.zero; contents = [] } in
        top := Q.add !top r.Rect.h;
        place_on level r;
        levels := level :: !levels)
    sorted;
  Placement.of_items (List.concat_map (fun l -> l.contents) !levels)

(* Only the newest level is open, so it is the only one kept; every item
   is prepended to one list, which is the order [shelf_pack] returns. *)
let nfdh rects =
  let items = ref [] in
  let level = ref None in
  let top = ref Q.zero in
  List.iter
    (fun (r : Rect.t) ->
      let l =
        match !level with
        | Some l when fits l r -> l
        | _ ->
          let l = { base = !top; lheight = r.Rect.h; used = Q.zero; contents = [] } in
          top := Q.add !top r.Rect.h;
          level := Some l;
          l
      in
      items := { Placement.rect = r; pos = { Placement.x = l.used; y = l.base } } :: !items;
      l.used <- Q.add l.used r.Rect.w)
    (Rect.sort_by_height_desc rects);
  Placement.of_items !items

let ffdh rects =
  shelf_pack rects ~choose:(fun levels r -> List.find_opt (fun l -> fits l r) levels)

let bfdh rects =
  shelf_pack rects ~choose:(fun levels r ->
      let candidates = List.filter (fun l -> fits l r) levels in
      List.fold_left
        (fun best l ->
          match best with
          | None -> Some l
          | Some b ->
            (* Least residual width after placing wins. *)
            if Q.compare l.used b.used > 0 then Some l else best)
        None candidates)

let nfdh_height rects = Placement.height (nfdh rects)

module Reference = struct
  let nfdh rects =
    shelf_pack rects ~choose:(fun levels r ->
        match List.rev levels with
        | [] -> None
        | newest :: _ -> if fits newest r then Some newest else None)
end
