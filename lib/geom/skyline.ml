module Q = Spp_num.Rat

(* Contour segments in left-to-right order; adjacent segments with equal y
   are merged so the candidate set stays small. *)
type seg = { x : Q.t; w : Q.t; y : Q.t }
type t = { mutable segs : seg list }

let create () = { segs = [ { x = Q.zero; w = Q.one; y = Q.zero } ] }

let segments t = List.map (fun s -> (s.x, s.w, s.y)) t.segs

let height t = List.fold_left (fun acc s -> Q.max acc s.y) Q.zero t.segs

let copy t = { segs = t.segs }

(* Max contour height over the window [x0, x0+w); None if the window leaves
   the strip. *)
let support t x0 w =
  let open Q.Infix in
  if x0 + w > Q.one then None
  else begin
    let x1 = x0 + w in
    let rec go best = function
      | [] -> best
      | s :: rest ->
        if s.x >= x1 then best
        else if s.x + s.w <= x0 then go best rest
        else go (Q.max best s.y) rest
    in
    Some (go Q.zero t.segs)
  end

(* Rebuild the contour after committing a rect occupying [x0, x1) at top. *)
let commit t x0 x1 top =
  let open Q.Infix in
  let pieces =
    List.concat_map
      (fun s ->
        let sx0 = s.x and sx1 = s.x + s.w in
        let left =
          if sx0 < x0 then [ { s with w = Q.min s.w (x0 - sx0) } ] else []
        in
        let right =
          if sx1 > x1 then
            let rx = Q.max s.x x1 in
            [ { x = rx; w = sx1 - rx; y = s.y } ]
          else []
        in
        left @ right)
      t.segs
  in
  let segs =
    List.sort (fun a b -> Q.compare a.x b.x) ({ x = x0; w = x1 - x0; y = top } :: pieces)
  in
  (* Merge adjacent segments at equal height. *)
  let rec merge = function
    | a :: b :: rest when Q.equal a.y b.y && Q.equal (Q.add a.x a.w) b.x ->
      merge ({ a with w = Q.add a.w b.w } :: rest)
    | a :: rest -> a :: merge rest
    | [] -> []
  in
  t.segs <- merge segs

let place t ~w ~h ~y_min =
  if Q.compare w Q.one > 0 then invalid_arg "Skyline.place: rect wider than strip";
  (* Candidates: each segment's left edge, plus the right-flush position. *)
  let candidates =
    List.filter_map
      (fun s ->
        match support t s.x w with
        | Some sup -> Some (s.x, Q.max sup y_min)
        | None ->
          (match support t (Q.sub Q.one w) w with
           | Some sup -> Some (Q.sub Q.one w, Q.max sup y_min)
           | None -> None))
      t.segs
  in
  let best =
    List.fold_left
      (fun acc (x, y) ->
        match acc with
        | None -> Some (x, y)
        | Some (bx, by) ->
          let c = Q.compare y by in
          if c < 0 || (c = 0 && Q.compare x bx < 0) then Some (x, y) else acc)
      None candidates
  in
  match best with
  | None -> assert false (* w <= 1 guarantees at least the right-flush candidate *)
  | Some (x, y) ->
    commit t x (Q.add x w) (Q.add y h);
    { Placement.x; y }

(* The same contour on an integer grid, kept as a stack of levels: level
   d + 1 is level d with one more rectangle committed. Each level owns a
   fixed row of [cap] cells holding its segments' left edges and heights
   (a segment ends where the next one starts, the last one at [width]), so
   placing allocates nothing and going back to a level costs nothing. A
   placement adds at most two segments, hence [cap = 2 * levels + 1]. *)
module Int = struct
  type t = {
    width : int;
    cap : int;
    xs : int array;  (* level d, segment k at index d * cap + k *)
    ys : int array;
    len : int array;  (* segments per level *)
    px : int array;  (* the position the last [place] from level d chose *)
    py : int array;
  }

  let create ~width ~levels =
    if width < 1 || levels < 0 then invalid_arg "Skyline.Int.create";
    let cap = (2 * levels) + 1 in
    let t =
      { width; cap;
        xs = Array.make ((levels + 1) * cap) 0;
        ys = Array.make ((levels + 1) * cap) 0;
        len = Array.make (levels + 1) 0;
        px = Array.make levels 0;
        py = Array.make levels 0 }
    in
    t.len.(0) <- 1;
    t

  let max (a : int) b = if a >= b then a else b

  let seg_end t base n k = if k + 1 < n then t.xs.(base + k + 1) else t.width

  (* Max contour height over [x0, x1) on the row at [base] with [n]
     segments, scanning from segment [k] on; [acc] below everything. *)
  let rec support t base n k x0 x1 acc =
    if k >= n || t.xs.(base + k) >= x1 then acc
    else begin
      let y = t.ys.(base + k) in
      support t base n (k + 1) x0 x1 (if seg_end t base n k > x0 && y > acc then y else acc)
    end

  (* Keep (x, y) as level [level]'s choice if it is lower, or as low and
     further left. *)
  let consider t level x y =
    let by = t.py.(level) in
    if y < by || (y = by && x < t.px.(level)) then begin
      t.px.(level) <- x;
      t.py.(level) <- y
    end

  (* Append segment (x, y) to the row at [dst] holding [m] segments,
     merging it into the last one at equal height; the new count. *)
  let push t dst m x y =
    if m > 0 && t.ys.(dst + m - 1) = y then m
    else begin
      t.xs.(dst + m) <- x;
      t.ys.(dst + m) <- y;
      m + 1
    end

  let place t ~level ~w ~h ~y_min =
    if w < 1 || w > t.width then invalid_arg "Skyline.Int.place: width outside 1..width";
    let base = level * t.cap and n = t.len.(level) in
    t.py.(level) <- max_int;
    (* Left edges increase, so once a window leaves the strip every later
       one does too: each would become the same right-flush candidate, so
       it is taken once and the scan stops. *)
    let k = ref 0 in
    while !k < n do
      let x0 = t.xs.(base + !k) in
      if x0 + w <= t.width then begin
        consider t level x0 (max y_min (support t base n !k x0 (x0 + w) 0));
        incr k
      end
      else begin
        let x0 = t.width - w in
        consider t level x0 (max y_min (support t base n 0 x0 t.width 0));
        k := n
      end
    done;
    (* Commit into the next level: the pieces left of the rect, the rect,
       the pieces right of it. *)
    let x0 = t.px.(level) in
    let x1 = x0 + w and top = t.py.(level) + h in
    let dst = base + t.cap in
    let m = ref 0 in
    for k = 0 to n - 1 do
      let sx = t.xs.(base + k) in
      if sx < x0 then m := push t dst !m sx t.ys.(base + k)
    done;
    m := push t dst !m x0 top;
    for k = 0 to n - 1 do
      if seg_end t base n k > x1 then
        m := push t dst !m (max x1 t.xs.(base + k)) t.ys.(base + k)
    done;
    t.len.(level + 1) <- !m

  let x t ~level = t.px.(level)
  let y t ~level = t.py.(level)

  let segments t ~level =
    let base = level * t.cap and n = t.len.(level) in
    List.init n (fun k ->
        let x = t.xs.(base + k) in
        (x, seg_end t base n k - x, t.ys.(base + k)))
end
