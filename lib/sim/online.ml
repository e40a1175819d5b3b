type t =
  | First_fit
  | Buffered of int

let default_lookahead = 4

let parse s =
  match String.split_on_char ':' s with
  | [ "first-fit" ] | [ "ff" ] -> Ok First_fit
  | [ "buffered" ] -> Ok (Buffered default_lookahead)
  | [ "buffered"; k ] -> (
    match int_of_string_opt k with
    | Some k when k >= 1 -> Ok (Buffered k)
    | _ -> Error (Printf.sprintf "bad lookahead in %S (want buffered:K, K >= 1)" s))
  | _ -> Error (Printf.sprintf "unknown packer %S (want first-fit or buffered[:K])" s)

let to_string = function
  | First_fit -> "first-fit"
  | Buffered k -> Printf.sprintf "buffered:%d" k

(* [buf.(0 .. len - 1)] are the pending arrival indices in arrival order;
   a placed entry is overwritten with -1 until the step compacts the
   buffer. [order] and [count] are the flush's counting sort by width. *)
type queue = {
  ids : int array;
  cols : int array;
  durations : int array;
  buf : int array;
  mutable len : int;
  order : int array;
  count : int array;
}

let queue ~ids ~cols ~durations =
  let n = Array.length ids in
  { ids; cols; durations; buf = Array.make n 0; len = 0; order = Array.make n 0;
    count = Array.make (Array.fold_left max 0 cols + 1) 0 }

let push q i =
  q.buf.(q.len) <- i;
  q.len <- q.len + 1

let length q = q.len

(* Try the entry at position [j] of the buffer. Placements only fill the
   strip, so once a width has failed in a step every width at least as
   large fails too: [blocked] is the least failed width so far. *)
let try_place strip q ~placed blocked j =
  let i = q.buf.(j) in
  let cols = q.cols.(i) in
  if cols < blocked then
    match Strip_state.first_fit strip ~cols with
    | Some col_lo ->
      Strip_state.place strip ~id:q.ids.(i) ~cols ~col_lo ~duration:q.durations.(i);
      placed i;
      q.buf.(j) <- -1;
      blocked
    | None -> cols
  else blocked

let compact q =
  let m = ref 0 in
  for j = 0 to q.len - 1 do
    if q.buf.(j) >= 0 then begin
      q.buf.(!m) <- q.buf.(j);
      incr m
    end
  done;
  q.len <- !m

let step policy strip q ~more_arrivals ~placed =
  match policy with
  | First_fit ->
    let blocked = ref max_int in
    for j = 0 to q.len - 1 do
      blocked := try_place strip q ~placed !blocked j
    done;
    compact q
  | Buffered b ->
    if not (more_arrivals && Strip_state.resident_count strip > 0 && q.len <= b) then begin
      (* Flush widest-first, ties by arrival order: a stable counting
         sort of the buffer positions by width, widest bucket first. *)
      let count = q.count in
      Array.fill count 0 (Array.length count) 0;
      for j = 0 to q.len - 1 do
        let w = q.cols.(q.buf.(j)) in
        count.(w) <- count.(w) + 1
      done;
      let start = ref 0 in
      for w = Array.length count - 1 downto 0 do
        let c = count.(w) in
        count.(w) <- !start;
        start := !start + c
      done;
      for j = 0 to q.len - 1 do
        let w = q.cols.(q.buf.(j)) in
        q.order.(count.(w)) <- j;
        count.(w) <- count.(w) + 1
      done;
      let blocked = ref max_int in
      for o = 0 to q.len - 1 do
        blocked := try_place strip q ~placed !blocked q.order.(o)
      done;
      compact q
    end

(* The list-based step this module started as, over the rational strip. *)
module Reference = struct
  module Strip_state = Strip_state.Reference

  (* Place [candidates] in the given order, each at its first fit; a
     candidate that does not fit right now stays pending. *)
  let place_each strip candidates =
    let placed = ref [] in
    let left = ref [] in
    List.iter
      (fun (a : Arrivals.arrival) ->
        match Strip_state.first_fit strip ~cols:a.Arrivals.cols with
        | Some col_lo ->
          Strip_state.place strip ~id:a.Arrivals.id ~cols:a.Arrivals.cols ~col_lo
            ~duration:a.Arrivals.duration;
          placed := (a, col_lo) :: !placed
        | None -> left := a :: !left)
      candidates;
    (List.rev !placed, List.rev !left)

  let step policy strip ~pending ~more_arrivals =
    match policy with
    | First_fit -> place_each strip pending
    | Buffered b ->
      if more_arrivals && Strip_state.resident_count strip > 0 && List.length pending <= b then
        ([], pending)
      else begin
        (* Flush widest-first (ties by arrival order, which the sort's
           stability preserves); the leftovers keep arrival order so the
           next flush re-sorts from the same FIFO. *)
        let widest_first =
          List.stable_sort
            (fun (a : Arrivals.arrival) b -> compare b.Arrivals.cols a.Arrivals.cols)
            pending
        in
        let placed, _ = place_each strip widest_first in
        let placed_ids = List.map (fun ((a : Arrivals.arrival), _) -> a.Arrivals.id) placed in
        let left =
          List.filter (fun (a : Arrivals.arrival) -> not (List.mem a.Arrivals.id placed_ids)) pending
        in
        (placed, left)
      end
end
