let pairs ~compare:cmp ~lo ~hi test =
  let n = Array.length lo in
  let order = Array.init n Fun.id in
  Array.stable_sort (fun i j -> cmp lo.(i) lo.(j)) order;
  (* [active.(0 .. live - 1)]: the swept items whose interval is still
     open at the current start. Items closed at or before it can meet no
     later item either, so they are dropped while the survivors are
     tested. *)
  let active = Array.make n 0 in
  let live = ref 0 in
  let found = ref [] in
  Array.iter
    (fun j ->
      let start = lo.(j) in
      let kept = ref 0 in
      for k = 0 to !live - 1 do
        let i = active.(k) in
        if cmp hi.(i) start > 0 then begin
          active.(!kept) <- i;
          incr kept;
          let a = min i j and b = max i j in
          if test a b then found := (a, b) :: !found
        end
      done;
      active.(!kept) <- j;
      live := !kept + 1)
    order;
  List.sort compare !found
