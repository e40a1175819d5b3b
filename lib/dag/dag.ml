module Q = Spp_num.Rat
module IntMap = Map.Make (Int)
module IntSet = Set.Make (Int)

type t = {
  node_set : IntSet.t;
  preds : IntSet.t IntMap.t; (* in-neighbourhoods *)
  succs : IntSet.t IntMap.t;
  nedges : int;
}

let empty = { node_set = IntSet.empty; preds = IntMap.empty; succs = IntMap.empty; nedges = 0 }

let mem t v = IntSet.mem v t.node_set
let nodes t = IntSet.elements t.node_set
let num_nodes t = IntSet.cardinal t.node_set
let num_edges t = t.nedges

let neighbours map v = match IntMap.find_opt v map with Some s -> s | None -> IntSet.empty

let preds t v = IntSet.elements (neighbours t.preds v)
let succs t v = IntSet.elements (neighbours t.succs v)
let has_edge t u v = IntSet.mem v (neighbours t.succs u)

let roots t = List.filter (fun v -> IntSet.is_empty (neighbours t.preds v)) (nodes t)
let sinks t = List.filter (fun v -> IntSet.is_empty (neighbours t.succs v)) (nodes t)

let edges t =
  List.concat_map (fun u -> List.map (fun v -> (u, v)) (succs t u)) (nodes t)

let iter_edges t f = IntMap.iter (fun u s -> IntSet.iter (f u) s) t.succs

(* Kahn's algorithm with a min-id heap; returns None when a cycle remains. *)
let topo_order_opt t =
  let indeg = Hashtbl.create 16 in
  IntSet.iter (fun v -> Hashtbl.replace indeg v (IntSet.cardinal (neighbours t.preds v))) t.node_set;
  let ready = Spp_util.Heap.create ~cmp:compare in
  IntSet.iter (fun v -> if Hashtbl.find indeg v = 0 then Spp_util.Heap.push ready v) t.node_set;
  let rec go acc count =
    match Spp_util.Heap.pop ready with
    | None -> if count = num_nodes t then Some (List.rev acc) else None
    | Some v ->
      IntSet.iter
        (fun w ->
          let d = Hashtbl.find indeg w - 1 in
          Hashtbl.replace indeg w d;
          if d = 0 then Spp_util.Heap.push ready w)
        (neighbours t.succs v);
      go (v :: acc) (count + 1)
  in
  go [] 0

let topo_order t =
  match topo_order_opt t with
  | Some order -> order
  | None -> assert false (* construction rejects cycles *)

let of_edges ~nodes:node_list ~edges =
  let node_set = IntSet.of_list node_list in
  if IntSet.cardinal node_set <> List.length node_list then
    invalid_arg "Dag.of_edges: duplicate node id";
  let add_edge (preds, succs, n) (u, v) =
    if not (IntSet.mem u node_set) || not (IntSet.mem v node_set) then
      invalid_arg (Printf.sprintf "Dag.of_edges: edge (%d,%d) references unknown node" u v);
    if u = v then invalid_arg (Printf.sprintf "Dag.of_edges: self-loop on %d" u);
    let cur = match IntMap.find_opt u succs with Some s -> s | None -> IntSet.empty in
    if IntSet.mem v cur then invalid_arg (Printf.sprintf "Dag.of_edges: duplicate edge (%d,%d)" u v);
    let succs = IntMap.add u (IntSet.add v cur) succs in
    let curp = match IntMap.find_opt v preds with Some s -> s | None -> IntSet.empty in
    let preds = IntMap.add v (IntSet.add u curp) preds in
    (preds, succs, n + 1)
  in
  let preds, succs, nedges = List.fold_left add_edge (IntMap.empty, IntMap.empty, 0) edges in
  let t = { node_set; preds; succs; nedges } in
  match topo_order_opt t with
  | Some _ -> t
  | None -> invalid_arg "Dag.of_edges: graph has a cycle"

let induced t keep =
  let node_set = IntSet.filter keep t.node_set in
  let filter_map m =
    IntMap.filter_map
      (fun v s -> if IntSet.mem v node_set then Some (IntSet.inter s node_set) else None)
      m
  in
  let preds = filter_map t.preds and succs = filter_map t.succs in
  let nedges = IntMap.fold (fun _ s acc -> acc + IntSet.cardinal s) succs 0 in
  { node_set; preds; succs; nedges }

let reachable t v =
  if not (mem t v) then invalid_arg "Dag.reachable: unknown node";
  let seen = ref IntSet.empty in
  let rec dfs u =
    if not (IntSet.mem u !seen) then begin
      seen := IntSet.add u !seen;
      IntSet.iter dfs (neighbours t.succs u)
    end
  in
  dfs v;
  IntSet.elements !seen

(* Reachability sets, computed once in reverse topological order. *)
let descendant_sets t =
  let desc = Hashtbl.create (num_nodes t) in
  List.iter
    (fun v ->
      let s =
        IntSet.fold
          (fun w acc -> IntSet.union acc (IntSet.add w (Hashtbl.find desc w)))
          (neighbours t.succs v) IntSet.empty
      in
      Hashtbl.replace desc v s)
    (List.rev (topo_order t));
  desc

let transitive_closure t =
  let desc = descendant_sets t in
  let edges =
    List.concat_map
      (fun u -> List.map (fun v -> (u, v)) (IntSet.elements (Hashtbl.find desc u)))
      (nodes t)
  in
  of_edges ~nodes:(nodes t) ~edges

let transitive_reduction t =
  let desc = descendant_sets t in
  (* Edge (u,v) is redundant iff v is reachable from another successor of
     u: then some path u -> w ->* v exists with w <> v. *)
  let edges =
    List.filter
      (fun (u, v) ->
        not
          (IntSet.exists
             (fun w -> w <> v && IntSet.mem v (Hashtbl.find desc w))
             (neighbours t.succs u)))
      (edges t)
  in
  of_edges ~nodes:(nodes t) ~edges

let is_comparable t u v =
  if not (mem t u && mem t v) then invalid_arg "Dag.is_comparable: unknown node";
  u = v
  || List.mem v (reachable t u)
  || List.mem u (reachable t v)

let longest_path_to t ~weight =
  let memo = Hashtbl.create (num_nodes t) in
  (* Fill in topological order so lookups never recurse. *)
  List.iter
    (fun v ->
      let best_pred =
        IntSet.fold
          (fun u acc -> Q.max acc (Hashtbl.find memo u))
          (neighbours t.preds v) Q.zero
      in
      Hashtbl.replace memo v (Q.add (weight v) best_pred))
    (topo_order t);
  fun v ->
    match Hashtbl.find_opt memo v with
    | Some x -> x
    | None -> invalid_arg "Dag.longest_path_to: unknown node"

let longest_path_length t =
  let memo = Hashtbl.create (num_nodes t) in
  let best = ref 0 in
  List.iter
    (fun v ->
      let p =
        IntSet.fold (fun u acc -> max acc (Hashtbl.find memo u)) (neighbours t.preds v) 0
      in
      Hashtbl.replace memo v (p + 1);
      best := max !best (p + 1))
    (topo_order t);
  !best

let independent t inside =
  not
    (List.exists
       (fun u -> inside u && IntSet.exists inside (neighbours t.succs u))
       (nodes t))

let pp fmt t =
  Format.fprintf fmt "dag{%d nodes, %d edges}" (num_nodes t) (num_edges t)
