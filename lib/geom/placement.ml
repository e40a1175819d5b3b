module Q = Spp_num.Rat

type pos = { x : Q.t; y : Q.t }
type item = { rect : Rect.t; pos : pos }
type t = { items : item list }

let of_items items =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun it ->
      let id = it.rect.Rect.id in
      if Hashtbl.mem tbl id then
        invalid_arg (Printf.sprintf "Placement.of_items: duplicate rect id %d" id);
      Hashtbl.add tbl id ())
    items;
  { items }

let items t = t.items
let size t = List.length t.items
let find t ~id = List.find_opt (fun it -> it.rect.Rect.id = id) t.items

let height t =
  List.fold_left (fun acc it -> Q.max acc (Q.add it.pos.y it.rect.Rect.h)) Q.zero t.items

let shift_y t dy =
  let shifted =
    List.map
      (fun it ->
        let y = Q.add it.pos.y dy in
        if Q.sign y < 0 then invalid_arg "Placement.shift_y: rectangle below base";
        { it with pos = { it.pos with y } })
      t.items
  in
  { items = shifted }

let union a b =
  of_items (a.items @ b.items)

(* Open-interior overlap: touching edges do not overlap. *)
let overlaps (ra : Rect.t) pa (rb : Rect.t) pb =
  let open Q.Infix in
  pa.x < pb.x + rb.Rect.w
  && pb.x < pa.x + ra.Rect.w
  && pa.y < pb.y + rb.Rect.h
  && pb.y < pa.y + ra.Rect.h

type violation = Out_of_strip of int | Overlap of int * int

let check t =
  let outside =
    List.filter_map
      (fun it ->
        let right = Q.add it.pos.x it.rect.Rect.w in
        if Q.sign it.pos.x < 0 || Q.sign it.pos.y < 0 || Q.compare right Q.one > 0 then
          Some (Out_of_strip it.rect.Rect.id)
        else None)
      t.items
  in
  (* Only rectangles whose y-ranges meet can overlap: sweep over y. *)
  let arr = Array.of_list t.items in
  let overlapping =
    Sweep.pairs
      ~lo:(Array.map (fun it -> it.pos.y) arr)
      ~hi:(Array.map (fun it -> Q.add it.pos.y it.rect.Rect.h) arr)
      (fun i j -> overlaps arr.(i).rect arr.(i).pos arr.(j).rect arr.(j).pos)
  in
  outside @ List.map (fun (i, j) -> Overlap (arr.(i).rect.Rect.id, arr.(j).rect.Rect.id)) overlapping

(* The pairwise loop: the oracle the differential tests compare [check]
   with. *)
module Reference = struct
  let check t =
    let violations = ref [] in
    let arr = Array.of_list t.items in
    Array.iter
      (fun it ->
        let right = Q.add it.pos.x it.rect.Rect.w in
        if Q.sign it.pos.x < 0 || Q.sign it.pos.y < 0 || Q.compare right Q.one > 0 then
          violations := Out_of_strip it.rect.Rect.id :: !violations)
      arr;
    let n = Array.length arr in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        let a = arr.(i) and b = arr.(j) in
        if overlaps a.rect a.pos b.rect b.pos then
          violations := Overlap (a.rect.Rect.id, b.rect.Rect.id) :: !violations
      done
    done;
    List.rev !violations
end

let is_valid t = check t = []

let pp_violation fmt = function
  | Out_of_strip id -> Format.fprintf fmt "rect #%d out of strip" id
  | Overlap (a, b) -> Format.fprintf fmt "rects #%d and #%d overlap" a b
