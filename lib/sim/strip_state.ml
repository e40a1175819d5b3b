module Q = Spp_num.Rat
module Scale = Spp_num.Scale

type resident = {
  id : int;
  cols : int;
  col_lo : int;
  started : int;
  finish : int;
}

type segment = {
  seg_id : int;
  seg_cols : int;
  seg_lo : int;
  seg_from : Q.t;
  seg_to : Q.t;
}

(* A closed segment on ticks. *)
type closed = { c_id : int; c_cols : int; c_lo : int; c_from : int; c_to : int }

(* The residents form a binary min-heap on (finish, id) in
   [heap.(0 .. size - 1)]; [seg_from.(i)] is the start of [heap.(i)]'s
   live segment and moves with it. A resident covers at least one column,
   so there are at most [k]. [occ] marks the occupied columns and [free]
   counts the others. *)
type t = {
  k : int;
  mutable now : int;
  occ : Bytes.t;
  mutable free : int;
  heap : resident array;
  seg_from : int array;
  mutable size : int;
  mutable closed : closed list;  (* reverse closing order *)
}

let vacant = { id = 0; cols = 0; col_lo = 0; started = 0; finish = 0 }

let create ~k =
  if k < 1 then invalid_arg "Strip_state.create: k must be >= 1";
  { k; now = 0; occ = Bytes.make k '\000'; free = k; heap = Array.make k vacant;
    seg_from = Array.make k 0; size = 0; closed = [] }

let k t = t.k
let now t = t.now
let resident_count t = t.size
let free_cols t = t.free
let next_finish t = if t.size = 0 then max_int else t.heap.(0).finish

let residents t =
  List.sort (fun a b -> compare a.id b.id) (List.init t.size (fun i -> t.heap.(i)))

let largest_free_run t =
  let best = ref 0 and run = ref 0 in
  for c = 0 to t.k - 1 do
    if Bytes.unsafe_get t.occ c = '\000' then begin
      incr run;
      if !run > !best then best := !run
    end
    else run := 0
  done;
  !best

let fragmentation t =
  if t.free = 0 then Q.zero else Q.sub Q.one (Q.of_ints (largest_free_run t) t.free)

let first_fit t ~cols =
  if cols < 1 || cols > t.k then invalid_arg "Strip_state.first_fit: cols out of range";
  let rec scan c run =
    if c >= t.k then None
    else if Bytes.unsafe_get t.occ c <> '\000' then scan (c + 1) 0
    else if run + 1 = cols then Some (c + 1 - cols)
    else scan (c + 1) (run + 1)
  in
  if cols > t.free then None else scan 0 0

(* (finish, id) order, the retirement order. *)
let before a b = a.finish < b.finish || (a.finish = b.finish && a.id < b.id)

let swap t i j =
  let r = t.heap.(i) and from = t.seg_from.(i) in
  t.heap.(i) <- t.heap.(j);
  t.seg_from.(i) <- t.seg_from.(j);
  t.heap.(j) <- r;
  t.seg_from.(j) <- from

let rec sift_up t i =
  let p = (i - 1) / 2 in
  if i > 0 && before t.heap.(i) t.heap.(p) then begin
    swap t i p;
    sift_up t p
  end

let rec sift_down t i =
  let l = (2 * i) + 1 in
  if l < t.size then begin
    let c = if l + 1 < t.size && before t.heap.(l + 1) t.heap.(l) then l + 1 else l in
    if before t.heap.(c) t.heap.(i) then begin
      swap t i c;
      sift_down t c
    end
  end

let log_segment t id cols lo from to_ =
  t.closed <- { c_id = id; c_cols = cols; c_lo = lo; c_from = from; c_to = to_ } :: t.closed

(* The heap slot of resident [id], or -1. *)
let slot t id =
  let rec go i = if i >= t.size then -1 else if t.heap.(i).id = id then i else go (i + 1) in
  go 0

let overlap_cols lo1 n1 lo2 n2 = lo1 < lo2 + n2 && lo2 < lo1 + n1

let place t ~id ~cols ~col_lo ~duration =
  if cols < 1 || col_lo < 0 || col_lo + cols > t.k then
    invalid_arg
      (Printf.sprintf "Strip_state.place: task %d columns [%d,%d) outside [0,%d)" id col_lo
         (col_lo + cols) t.k);
  if duration <= 0 then
    invalid_arg (Printf.sprintf "Strip_state.place: task %d has non-positive duration" id);
  if slot t id >= 0 then
    invalid_arg (Printf.sprintf "Strip_state.place: task %d is already resident" id);
  for c = col_lo to col_lo + cols - 1 do
    if Bytes.get t.occ c <> '\000' then
      for i = 0 to t.size - 1 do
        let r = t.heap.(i) in
        if overlap_cols col_lo cols r.col_lo r.cols then
          invalid_arg (Printf.sprintf "Strip_state.place: task %d overlaps resident %d" id r.id)
      done
  done;
  let i = t.size in
  t.heap.(i) <- { id; cols; col_lo; started = t.now; finish = t.now + duration };
  t.seg_from.(i) <- t.now;
  t.size <- i + 1;
  sift_up t i;
  Bytes.fill t.occ col_lo cols '\001';
  t.free <- t.free - cols

let advance t time =
  if time < t.now then invalid_arg "Strip_state.advance: time went backwards";
  t.now <- time;
  let rec retire acc =
    if t.size > 0 && t.heap.(0).finish <= time then begin
      let r = t.heap.(0) in
      log_segment t r.id r.cols r.col_lo t.seg_from.(0) r.finish;
      Bytes.fill t.occ r.col_lo r.cols '\000';
      t.free <- t.free + r.cols;
      t.size <- t.size - 1;
      swap t 0 t.size;
      t.heap.(t.size) <- vacant;
      sift_down t 0;
      retire (r :: acc)
    end
    else List.rev acc
  in
  retire []

let apply_moves t moves =
  let moves =
    List.filter
      (fun (id, lo) ->
        let i = slot t id in
        if i < 0 then invalid_arg (Printf.sprintf "Strip_state.apply_moves: task %d not resident" id);
        t.heap.(i).col_lo <> lo)
      moves
  in
  if moves <> [] then begin
    (* Validate the final configuration before mutating anything: every
       resident in range, then each column claimed at most once. *)
    let final = Array.init t.size (fun i ->
        let r = t.heap.(i) in
        match List.assoc_opt r.id moves with Some lo -> lo | None -> r.col_lo)
    in
    Array.iteri
      (fun i lo ->
        let r = t.heap.(i) in
        if lo < 0 || lo + r.cols > t.k then
          invalid_arg
            (Printf.sprintf "Strip_state.apply_moves: task %d columns [%d,%d) outside [0,%d)" r.id
               lo (lo + r.cols) t.k))
      final;
    let owner = Array.make t.k (-1) in
    Array.iteri
      (fun i lo ->
        for c = lo to lo + t.heap.(i).cols - 1 do
          if owner.(c) >= 0 then
            invalid_arg
              (Printf.sprintf "Strip_state.apply_moves: tasks %d and %d would overlap"
                 t.heap.(owner.(c)).id t.heap.(i).id);
          owner.(c) <- i
        done)
      final;
    List.iter
      (fun (id, lo) ->
        let i = slot t id in
        let r = t.heap.(i) in
        (* Zero-length segments (a move at the exact instant of the last
           move or the placement) would be vacuous; only log real spans. *)
        if t.seg_from.(i) < t.now then log_segment t id r.cols r.col_lo t.seg_from.(i) t.now;
        t.heap.(i) <- { r with col_lo = lo };
        t.seg_from.(i) <- t.now)
      moves;
    Array.iteri (fun c o -> Bytes.set t.occ c (if o >= 0 then '\001' else '\000')) owner
  end

let segments t ~scale =
  let at = Scale.of_grid scale in
  let live =
    List.init t.size (fun i ->
        let r = t.heap.(i) in
        { seg_id = r.id; seg_cols = r.cols; seg_lo = r.col_lo; seg_from = at t.seg_from.(i);
          seg_to = at r.finish })
    |> List.sort (fun a b -> compare a.seg_id b.seg_id)
  in
  List.fold_left
    (fun acc c ->
      { seg_id = c.c_id; seg_cols = c.c_cols; seg_lo = c.c_lo; seg_from = at c.c_from;
        seg_to = at c.c_to }
      :: acc)
    live t.closed

(* The rational strip this module started as, kept as the oracle for the
   tick strip above and as the strip of [Sim.Reference.run]. *)
module Reference = struct
  type resident = {
    id : int;
    cols : int;
    col_lo : int;
    started : Q.t;
    finish : Q.t;
  }

  type live = {
    mutable r : resident;
    mutable seg_from : Q.t;  (** start of the current (live) segment *)
  }

  type t = {
    k : int;
    mutable now : Q.t;
    live : (int, live) Hashtbl.t;
    mutable closed : segment list;  (** reverse closing order *)
  }

  let create ~k =
    if k < 1 then invalid_arg "Strip_state.create: k must be >= 1";
    { k; now = Q.zero; live = Hashtbl.create 16; closed = [] }

  let k t = t.k
  let now t = t.now

  let residents t =
    Hashtbl.fold (fun _ l acc -> l.r :: acc) t.live []
    |> List.sort (fun a b -> compare a.id b.id)

  let resident_count t = Hashtbl.length t.live

  (* Column occupancy as a mask; k is FPGA-column-count small, so a scan is
     cheaper and clearer than an interval tree. *)
  let occupancy t =
    let occ = Array.make t.k false in
    Hashtbl.iter
      (fun _ l ->
        for c = l.r.col_lo to l.r.col_lo + l.r.cols - 1 do
          occ.(c) <- true
        done)
      t.live;
    occ

  let free_cols t = t.k - Hashtbl.fold (fun _ l acc -> acc + l.r.cols) t.live 0

  let largest_free_run t =
    let occ = occupancy t in
    let best = ref 0 and run = ref 0 in
    Array.iter
      (fun o ->
        if o then run := 0
        else begin
          incr run;
          if !run > !best then best := !run
        end)
      occ;
    !best

  let fragmentation t =
    let free = free_cols t in
    if free = 0 then Q.zero else Q.sub Q.one (Q.of_ints (largest_free_run t) free)

  let first_fit t ~cols =
    if cols < 1 || cols > t.k then invalid_arg "Strip_state.first_fit: cols out of range";
    let occ = occupancy t in
    let lo = ref 0 and found = ref None in
    (try
       while !lo + cols <= t.k do
         let blocked = ref None in
         for c = !lo + cols - 1 downto !lo do
           if occ.(c) then blocked := Some c
         done;
         match !blocked with
         | None ->
           found := Some !lo;
           raise Exit
         | Some c -> lo := c + 1
       done
     with Exit -> ());
    !found

  let place t ~id ~cols ~col_lo ~duration =
    if cols < 1 || col_lo < 0 || col_lo + cols > t.k then
      invalid_arg
        (Printf.sprintf "Strip_state.place: task %d columns [%d,%d) outside [0,%d)" id col_lo
           (col_lo + cols) t.k);
    if Q.sign duration <= 0 then
      invalid_arg (Printf.sprintf "Strip_state.place: task %d has non-positive duration" id);
    if Hashtbl.mem t.live id then
      invalid_arg (Printf.sprintf "Strip_state.place: task %d is already resident" id);
    Hashtbl.iter
      (fun _ l ->
        if overlap_cols col_lo cols l.r.col_lo l.r.cols then
          invalid_arg
            (Printf.sprintf "Strip_state.place: task %d overlaps resident %d" id l.r.id))
      t.live;
    let r = { id; cols; col_lo; started = t.now; finish = Q.add t.now duration } in
    Hashtbl.replace t.live id { r; seg_from = t.now }

  let advance t time =
    if Q.compare time t.now < 0 then invalid_arg "Strip_state.advance: time went backwards";
    t.now <- time;
    let done_ =
      Hashtbl.fold (fun _ l acc -> if Q.compare l.r.finish time <= 0 then l :: acc else acc)
        t.live []
      |> List.sort (fun a b ->
             match Q.compare a.r.finish b.r.finish with 0 -> compare a.r.id b.r.id | c -> c)
    in
    List.iter
      (fun l ->
        Hashtbl.remove t.live l.r.id;
        t.closed <-
          { seg_id = l.r.id; seg_cols = l.r.cols; seg_lo = l.r.col_lo; seg_from = l.seg_from;
            seg_to = l.r.finish }
          :: t.closed)
      done_;
    List.map (fun l -> l.r) done_

  let apply_moves t moves =
    let moves =
      List.filter
        (fun (id, lo) ->
          match Hashtbl.find_opt t.live id with
          | None -> invalid_arg (Printf.sprintf "Strip_state.apply_moves: task %d not resident" id)
          | Some l -> l.r.col_lo <> lo)
        moves
    in
    if moves <> [] then begin
      (* Validate the final configuration before mutating anything. *)
      let final =
        Hashtbl.fold
          (fun id l acc ->
            let lo = match List.assoc_opt id moves with Some lo -> lo | None -> l.r.col_lo in
            (id, lo, l.r.cols) :: acc)
          t.live []
      in
      List.iter
        (fun (id, lo, cols) ->
          if lo < 0 || lo + cols > t.k then
            invalid_arg
              (Printf.sprintf "Strip_state.apply_moves: task %d columns [%d,%d) outside [0,%d)" id
                 lo (lo + cols) t.k))
        final;
      let rec pairwise = function
        | [] -> ()
        | (id1, lo1, c1) :: rest ->
          List.iter
            (fun (id2, lo2, c2) ->
              if overlap_cols lo1 c1 lo2 c2 then
                invalid_arg
                  (Printf.sprintf "Strip_state.apply_moves: tasks %d and %d would overlap" id1 id2))
            rest;
          pairwise rest
      in
      pairwise final;
      List.iter
        (fun (id, lo) ->
          let l = Hashtbl.find t.live id in
          (* Zero-length segments (a move at the exact instant of the last
             move or the placement) would be vacuous; only log real spans. *)
          if Q.compare l.seg_from t.now < 0 then
            t.closed <-
              { seg_id = id; seg_cols = l.r.cols; seg_lo = l.r.col_lo; seg_from = l.seg_from;
                seg_to = t.now }
              :: t.closed;
          l.r <- { l.r with col_lo = lo };
          l.seg_from <- t.now)
        moves
    end

  let segments t =
    let live =
      Hashtbl.fold
        (fun _ l acc ->
          { seg_id = l.r.id; seg_cols = l.r.cols; seg_lo = l.r.col_lo; seg_from = l.seg_from;
            seg_to = l.r.finish }
          :: acc)
        t.live []
      |> List.sort (fun a b -> compare a.seg_id b.seg_id)
    in
    List.rev_append t.closed live
end
