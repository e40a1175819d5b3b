(* Span trees in the {!Spp_obs.Trace.to_json} shape: every node has a
   name, a start offset from its trace's epoch, a duration (absent on a
   span still open when the tree was serialised) and children. *)

module Json = Spp_server.Json

type node = { name : string; start : float; dur : float option; children : node list }

let rec of_json j =
  let children =
    match Json.member "spans" j with Some (Json.List l) -> List.map of_json l | _ -> []
  in
  let num key = Option.bind (Json.member key j) Json.get_float in
  { name = Option.value ~default:"?" (Option.bind (Json.member "name" j) Json.get_string);
    start = Option.value ~default:0.0 (num "start_ms");
    dur = num "ms";
    children }

(* [root_of_trace j] reads the [root] of a {!Spp_obs.Trace.to_json} object. *)
let root_of_trace j = Option.map of_json (Json.member "root" j)

(* The tree of a trace recorded in this process. *)
let of_trace tr =
  Option.bind (Result.to_option (Json.of_string (Spp_obs.Trace.to_json tr))) root_of_trace

let rec to_json n =
  Json.Obj
    ([ ("name", Json.String n.name); ("start_ms", Json.Float n.start) ]
    @ (match n.dur with Some d -> [ ("ms", Json.Float d) ] | None -> [])
    @ [ ("self_ms", Json.Float (self_ms n)) ]
    @
    match n.children with
    | [] -> []
    | cs -> [ ("spans", Json.List (List.map to_json cs)) ])

(* End of the last child, for a span serialised while still open. *)
and extent n =
  match n.dur with
  | Some d -> n.start +. d
  | None -> List.fold_left (fun acc c -> Float.max acc (extent c)) n.start n.children

and length n = extent n -. n.start

(* Total length of the union of [intervals] clipped to [lo, hi]. *)
and covered ~lo ~hi intervals =
  let sorted =
    List.sort compare (List.filter_map (fun (a, b) ->
        let a = Float.max lo a and b = Float.min hi b in
        if b > a then Some (a, b) else None) intervals)
  in
  let total, _ =
    List.fold_left
      (fun (total, reach) (a, b) ->
        if b <= reach then (total, reach)
        else (total +. (b -. Float.max a reach), b))
      (0.0, lo) sorted
  in
  total

(* Self time: the span's duration minus the part its children cover. *)
and self_ms n =
  let lo = n.start and hi = extent n in
  (hi -. lo) -. covered ~lo ~hi (List.map (fun c -> (c.start, extent c)) n.children)

let rec iter f n =
  f n;
  List.iter (iter f) n.children

(* Durations of every span called [name] in the tree. *)
let durations name n =
  let acc = ref [] in
  iter (fun s -> if s.name = name then acc := length s :: !acc) n;
  !acc

let find_child name n = List.find_opt (fun c -> c.name = name) n.children

(* Rebase a tree by [dt] ms, so a responder's tree can sit inside the
   client's span. *)
let rec shift dt n = { n with start = n.start +. dt; children = List.map (shift dt) n.children }
