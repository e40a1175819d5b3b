type key = { k_name : string; k_labels : (string * string) list }

type hist_cells = {
  bounds : float array;  (* strictly increasing finite upper bounds *)
  counts : int Atomic.t array array;  (* shard -> bucket (length bounds + 1; last = overflow) *)
  sums : float Atomic.t array;  (* shard *)
}

type metric =
  | M_counter of int Atomic.t array  (* per shard *)
  | M_counter_fn of (unit -> int)
  | M_gauge of float Atomic.t
  | M_gauge_fn of (unit -> float)
  | M_hist of hist_cells

type entry = { help : string; metric : metric }

type t = {
  on : bool;
  mask : int;
  lock : Mutex.t;
  tbl : (key, entry) Hashtbl.t;
}

type counter = { c_cells : int Atomic.t array; c_mask : int; c_on : bool }
type gauge = { g_cell : float Atomic.t; g_on : bool }
type histogram = { h_cells : hist_cells; h_mask : int; h_on : bool }

let default_latency_buckets =
  [| 0.05; 0.1; 0.25; 0.5; 1.0; 2.5; 5.0; 10.0; 25.0; 50.0; 100.0; 250.0; 500.0; 1000.0;
     2500.0; 5000.0; 10000.0 |]

let default_size_buckets =
  [| 64.; 256.; 1024.; 4096.; 16384.; 65536.; 262144.; 1048576.; 4194304. |]

let rec pow2_at_least n k = if k >= n then k else pow2_at_least n (k * 2)

let create ?(enabled = true) ?(shards = 16) () =
  let shards = pow2_at_least (max 1 shards) 1 in
  { on = enabled; mask = shards - 1; lock = Mutex.create (); tbl = Hashtbl.create 64 }

let enabled t = t.on

let canon_labels labels =
  List.sort (fun (a, _) (b, _) -> compare a b) labels

let shard_index mask = (Domain.self () :> int) land mask

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let kind_name = function
  | M_counter _ | M_counter_fn _ -> "counter"
  | M_gauge _ | M_gauge_fn _ -> "gauge"
  | M_hist _ -> "histogram"

(* Register-or-find under the lock; handles returned from here do their
   work with plain atomic operations, no lock. *)
let register t ?(help = "") ?(labels = []) name make match_existing =
  if not t.on then
    (* Disabled registry: hand out working-shaped (but no-op) cells and
       record nothing, so snapshots and scrapes are empty and free. *)
    match_existing (make ())
  else
    let key = { k_name = name; k_labels = canon_labels labels } in
    locked t (fun () ->
        match Hashtbl.find_opt t.tbl key with
        | Some e -> match_existing e.metric
        | None ->
          let m = make () in
          Hashtbl.replace t.tbl key { help; metric = m };
          match_existing m)

let mismatch name metric =
  invalid_arg
    (Printf.sprintf "Metrics: %s is already registered as a %s" name (kind_name metric))

let counter t ?help ?labels name =
  let make () = M_counter (Array.init (t.mask + 1) (fun _ -> Atomic.make 0)) in
  register t ?help ?labels name make (function
    | M_counter cells -> { c_cells = cells; c_mask = t.mask; c_on = t.on }
    | m -> mismatch name m)

let incr ?(by = 1) c =
  if c.c_on then ignore (Atomic.fetch_and_add c.c_cells.(shard_index c.c_mask) by)

let counter_value c = Array.fold_left (fun acc a -> acc + Atomic.get a) 0 c.c_cells

let counter_fn t ?help ?labels name f =
  (* Sampled at snapshot time; re-registration replaces the closure (an
     engine restarted onto a shared registry points it at fresh state). *)
  if t.on then
    let key = { k_name = name; k_labels = canon_labels (Option.value ~default:[] labels) } in
    locked t (fun () ->
        Hashtbl.replace t.tbl key
          { help = Option.value ~default:"" help; metric = M_counter_fn f })

let gauge t ?help ?labels name =
  let make () = M_gauge (Atomic.make 0.0) in
  register t ?help ?labels name make (function
    | M_gauge cell -> { g_cell = cell; g_on = t.on }
    | m -> mismatch name m)

let gauge_set g v = if g.g_on then Atomic.set g.g_cell v

let rec atomic_add_float cell x =
  let v = Atomic.get cell in
  if not (Atomic.compare_and_set cell v (v +. x)) then atomic_add_float cell x

let gauge_add g v = if g.g_on then atomic_add_float g.g_cell v
let gauge_value g = Atomic.get g.g_cell

let gauge_fn t ?help ?labels name f =
  if t.on then
    let key = { k_name = name; k_labels = canon_labels (Option.value ~default:[] labels) } in
    locked t (fun () ->
        Hashtbl.replace t.tbl key
          { help = Option.value ~default:"" help; metric = M_gauge_fn f })

let check_bounds bounds =
  if Array.length bounds = 0 then invalid_arg "Metrics.histogram: empty buckets";
  Array.iteri
    (fun i b ->
      if not (Float.is_finite b) then invalid_arg "Metrics.histogram: non-finite bucket bound";
      if i > 0 && b <= bounds.(i - 1) then
        invalid_arg "Metrics.histogram: bucket bounds must be strictly increasing")
    bounds

let histogram t ?help ?labels ?(buckets = default_latency_buckets) name =
  check_bounds buckets;
  let make () =
    M_hist
      { bounds = Array.copy buckets;
        counts =
          Array.init (t.mask + 1) (fun _ ->
              Array.init (Array.length buckets + 1) (fun _ -> Atomic.make 0));
        sums = Array.init (t.mask + 1) (fun _ -> Atomic.make 0.0) }
  in
  register t ?help ?labels name make (function
    | M_hist cells ->
      if cells.bounds <> buckets && buckets != default_latency_buckets then
        invalid_arg (Printf.sprintf "Metrics: %s re-registered with different buckets" name);
      { h_cells = cells; h_mask = t.mask; h_on = t.on }
    | m -> mismatch name m)

(* First bucket whose upper bound admits v (Prometheus "le" semantics),
   else the overflow slot. Bounds arrays are small; linear scan. *)
let bucket_index bounds v =
  let n = Array.length bounds in
  let rec go i = if i >= n || v <= bounds.(i) then i else go (i + 1) in
  go 0

let observe h v =
  if h.h_on then begin
    let s = shard_index h.h_mask in
    ignore (Atomic.fetch_and_add h.h_cells.counts.(s).(bucket_index h.h_cells.bounds v) 1);
    atomic_add_float h.h_cells.sums.(s) v
  end

(* ------------------------------------------------------------------ *)
(* Snapshots: merge shards under no lock — each cell read is atomic, and
   counters only grow, so a concurrent scrape sees a consistent-enough
   (monotone) view. *)

type hist_snapshot = {
  buckets : (float * int) list;  (** (finite upper bound, cumulative count) *)
  total : int;
  sum : float;
}

let snap_hist (cells : hist_cells) =
  let nb = Array.length cells.bounds + 1 in
  let merged = Array.make nb 0 in
  Array.iter (fun shard -> Array.iteri (fun i a -> merged.(i) <- merged.(i) + Atomic.get a) shard)
    cells.counts;
  let sum = Array.fold_left (fun acc a -> acc +. Atomic.get a) 0.0 cells.sums in
  let cum = ref 0 in
  let buckets =
    Array.to_list
      (Array.mapi
         (fun i b ->
           cum := !cum + merged.(i);
           (b, !cum))
         cells.bounds)
  in
  { buckets; total = !cum + merged.(nb - 1); sum }

let hist_quantile s q =
  if s.total = 0 then 0.0
  else begin
    let q = Float.min 1.0 (Float.max 0.0 q) in
    let rank = Float.max 1.0 (Float.round (q *. float_of_int s.total)) in
    let rec go lower prev_cum = function
      | [] ->
        (* Rank falls in the overflow bucket: report the largest finite
           bound — a floor, honestly labelled by the exposition's +Inf. *)
        lower
      | (bound, cum) :: tl ->
        if float_of_int cum >= rank then begin
          let in_bucket = cum - prev_cum in
          if in_bucket <= 0 then bound
          else begin
            let frac = (rank -. float_of_int prev_cum) /. float_of_int in_bucket in
            lower +. ((bound -. lower) *. frac)
          end
        end
        else go bound cum tl
    in
    go 0.0 0 s.buckets
  end

type value =
  | Counter of int
  | Gauge of float
  | Histogram of hist_snapshot

type sample = {
  name : string;
  labels : (string * string) list;
  help : string;
  value : value;
}

let snapshot t =
  let entries = locked t (fun () -> Hashtbl.fold (fun k e acc -> (k, e) :: acc) t.tbl []) in
  entries
  |> List.map (fun (k, e) ->
         let value =
           match e.metric with
           | M_counter cells -> Counter (Array.fold_left (fun acc a -> acc + Atomic.get a) 0 cells)
           | M_counter_fn f -> Counter (try f () with _ -> 0)
           | M_gauge cell -> Gauge (Atomic.get cell)
           | M_gauge_fn f -> Gauge (try f () with _ -> Float.nan)
           | M_hist cells -> Histogram (snap_hist cells)
         in
         { name = k.k_name; labels = k.k_labels; help = e.help; value })
  |> List.sort (fun a b ->
         match compare a.name b.name with 0 -> compare a.labels b.labels | c -> c)

let labels_to_string labels =
  match labels with
  | [] -> ""
  | _ ->
    let label (k, v) = k ^ "=" ^ Spp_util.Json.to_string (Spp_util.Json.String v) in
    "{" ^ String.concat "," (List.map label labels) ^ "}"

let counters t =
  snapshot t
  |> List.filter_map (fun s ->
         match s.value with
         | Counter v -> Some (s.name ^ labels_to_string s.labels, v)
         | Gauge _ | Histogram _ -> None)

let find t ?(labels = []) name =
  let key = { k_name = name; k_labels = canon_labels labels } in
  locked t (fun () -> Hashtbl.find_opt t.tbl key)

let find_counter t ?labels name =
  match find t ?labels name with
  | Some { metric = M_counter cells; _ } ->
    Some (Array.fold_left (fun acc a -> acc + Atomic.get a) 0 cells)
  | Some { metric = M_counter_fn f; _ } -> Some (try f () with _ -> 0)
  | _ -> None

let find_histogram t ?labels name =
  match find t ?labels name with
  | Some { metric = M_hist cells; _ } -> Some (snap_hist cells)
  | _ -> None

let labeled_counters t name =
  snapshot t
  |> List.filter_map (fun s ->
         match s.value with
         | Counter v when s.name = name -> Some (s.labels, v)
         | _ -> None)
