module Q = Spp_num.Rat
module Scale = Spp_num.Scale

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

module Grid = struct
  type t = { sx : int; sy : int; x : int array; w : int array; y : int array; h : int array }

  let make ?(sy = 1) items =
    let sx = ref 1 and sy = ref sy in
    Array.iter
      (fun it ->
        sx := Scale.extend (Scale.extend !sx it.pos.x) it.rect.Rect.w;
        sy := Scale.extend (Scale.extend !sy it.pos.y) it.rect.Rect.h)
      items;
    let sx = !sx and sy = !sy in
    let n = Array.length items in
    let x = Array.make n 0 and w = Array.make n 0 and y = Array.make n 0 and h = Array.make n 0 in
    for i = 0 to n - 1 do
      let it = items.(i) in
      x.(i) <- Scale.to_grid sx it.pos.x;
      w.(i) <- Scale.to_grid sx it.rect.Rect.w;
      y.(i) <- Scale.to_grid sy it.pos.y;
      h.(i) <- Scale.to_grid sy it.rect.Rect.h;
      (* The sweep's candidates already meet in y only when no height is
         zero or negative (Sweep.pairs). *)
      if h.(i) <= 0 then raise Scale.Off_grid
    done;
    { sx; sy; x; w; y; h }

  let check items grid =
    let n = Array.length items in
    let id i = items.(i).rect.Rect.id in
    let outside, overlapping =
      match grid with
      | Some g ->
        ( (fun i -> g.x.(i) < 0 || g.y.(i) < 0 || g.x.(i) + g.w.(i) > g.sx),
          (* The sweep only tests pairs whose y-ranges meet, so x decides. *)
          Sweep.pairs ~compare:Int.compare ~lo:g.y
            ~hi:(Array.init n (fun i -> g.y.(i) + g.h.(i)))
            (fun i j -> g.x.(i) < g.x.(j) + g.w.(j) && g.x.(j) < g.x.(i) + g.w.(i)) )
      | None ->
        ( (fun i ->
            let it = items.(i) in
            Q.sign it.pos.x < 0 || Q.sign it.pos.y < 0
            || Q.compare (Q.add it.pos.x it.rect.Rect.w) Q.one > 0),
          (* Only rectangles whose y-ranges meet can overlap: sweep over y. *)
          Sweep.pairs ~compare:Q.compare
            ~lo:(Array.map (fun it -> it.pos.y) items)
            ~hi:(Array.map (fun it -> Q.add it.pos.y it.rect.Rect.h) items)
            (fun i j -> overlaps items.(i).rect items.(i).pos items.(j).rect items.(j).pos) )
    in
    let violations = ref (List.map (fun (i, j) -> Overlap (id i, id j)) overlapping) in
    for i = n - 1 downto 0 do
      if outside i then violations := Out_of_strip (id i) :: !violations
    done;
    !violations
end

let grid items = Scale.fits (fun () -> Grid.make items)

let check t =
  let items = Array.of_list t.items in
  Grid.check items (grid items)

let on_grid t = Option.is_some (grid (Array.of_list t.items))

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
