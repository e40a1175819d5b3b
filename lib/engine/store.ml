(* The age index: every entry this store knows, oldest write first.
   [ages] maps a fingerprint to the stamp of its latest write and [order]
   holds (stamp, fingerprint) pairs in stamp order; a rewrite pushes a
   new pair, so a pair whose stamp is no longer its fingerprint's is
   stale and skipped. Exact for this process's writes; entries other
   processes write or delete are picked up at each directory listing. *)
type t = {
  dir : string;
  max_entries : int;
  lock : Mutex.t;  (* guards the index and the rename+prune sequence *)
  ages : (string, int) Hashtbl.t;
  order : (int * string) Queue.t;
  mutable stamp : int;
  mutable past_cap : int;  (* writes past the cap since the last listing *)
  mutable prunes : int;  (* entries deleted by capacity pruning *)
  mutable corrupt : int;  (* entries rejected by checksum on load *)
}

let default_max_entries = 512

let rec mkdir_p path =
  if path <> "" && path <> "/" && path <> "." && not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let is_sol f = Filename.check_suffix f ".sol"

(* Temp files are "<fp>.sol.tmp.<pid>.<seq>"; any file with ".tmp." in its
   name is an orphan from a crashed writer (live ones exist only for the
   microseconds between write and rename). *)
let is_tmp f =
  let marker = ".tmp." in
  let nm = String.length marker and nf = String.length f in
  let rec scan i = i + nm <= nf && (String.sub f i nm = marker || scan (i + 1)) in
  scan 0

let entries dir = try Sys.readdir dir with Sys_error _ -> [||]

(* [fp] becomes the youngest entry. Once stale pairs outnumber the live
   ones, [order] is rebuilt from the live pairs alone, so it stays within
   twice the entry count however often entries are rewritten. *)
let touch t fp =
  t.stamp <- t.stamp + 1;
  Hashtbl.replace t.ages fp t.stamp;
  Queue.push (t.stamp, fp) t.order;
  if Queue.length t.order > 2 * Hashtbl.length t.ages then begin
    let live = Queue.create () in
    Queue.iter
      (fun ((s, fp) as e) -> if Hashtbl.find_opt t.ages fp = Some s then Queue.push e live)
      t.order;
    Queue.clear t.order;
    Queue.transfer live t.order
  end

(* Rebuilds the index from a listing of the directory: its [.sol]
   entries, oldest mtime first. *)
let index t files =
  Hashtbl.reset t.ages;
  Queue.clear t.order;
  Array.to_list files
  |> List.filter_map (fun f ->
         if not (is_sol f) then None
         else
           match Unix.stat (Filename.concat t.dir f) with
           | s -> Some (s.Unix.st_mtime, Filename.chop_suffix f ".sol")
           | exception Unix.Unix_error _ -> None)
  |> List.sort compare
  |> List.iter (fun (_, fp) -> touch t fp)

let create ?(max_entries = default_max_entries) ~dir () =
  if max_entries < 1 then invalid_arg "Store.create: max_entries must be >= 1";
  mkdir_p dir;
  let files = entries dir in
  Array.iter
    (fun f -> if is_tmp f then try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    files;
  let t =
    { dir; max_entries; lock = Mutex.create (); ages = Hashtbl.create 64; order = Queue.create ();
      stamp = 0; past_cap = 0; prunes = 0; corrupt = 0 }
  in
  index t files;
  t

let dir t = t.dir
let max_entries t = t.max_entries

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let length t = locked t (fun () -> Hashtbl.length t.ages)
let prunes t = locked t (fun () -> t.prunes)
let corrupt t = locked t (fun () -> t.corrupt)

let path t fingerprint = Filename.concat t.dir (fingerprint ^ ".sol")

let crc_prefix = "crc32 "

(* Entries start with "crc32 <hex>" covering every byte after that line.
   Pre-checksum entries (no crc line) are still accepted: the engine
   re-validates loaded placements anyway, so the checksum is an early,
   cheap corruption gate rather than the only line of defense. *)
let verify_checksum t contents =
  match String.index_opt contents '\n' with
  | Some nl
    when nl > String.length crc_prefix
         && String.sub contents 0 (String.length crc_prefix) = crc_prefix ->
    let hex = String.sub contents (String.length crc_prefix) (nl - String.length crc_prefix) in
    let rest = String.sub contents (nl + 1) (String.length contents - nl - 1) in
    if Spp_util.Crc32.digest_hex rest = String.lowercase_ascii hex then Some rest
    else begin
      locked t (fun () -> t.corrupt <- t.corrupt + 1);
      None
    end
  | _ -> Some contents

let find t ~rects ~fingerprint =
  let file = path t fingerprint in
  match
    Spp_util.Fault.hit "store.read";
    In_channel.with_open_text file In_channel.input_all
  with
  | exception Sys_error _ -> None
  | exception Spp_util.Fault.Injected _ -> None
  | raw -> (
    match verify_checksum t raw with
    | None -> None
    | Some contents -> (
      match String.index_opt contents '\n' with
      | None -> None
      | Some nl -> (
        let first = String.sub contents 0 nl in
        let body = String.sub contents (nl + 1) (String.length contents - nl - 1) in
        match String.split_on_char ' ' first with
        | [ "winner"; name ] -> (
          match Spp_core.Io.parse_placement ~rects body with
          | placement -> Some (name, placement)
          | exception Failure _ -> None)
        | _ -> None)))

(* Over capacity: delete the oldest entries down to the cap. Once every
   [max_entries] writes past the cap, the index is first rebuilt from the
   directory, so entries other processes wrote are pruned too, by mtime. *)
let prune_locked t =
  if Hashtbl.length t.ages > t.max_entries then begin
    t.past_cap <- t.past_cap + 1;
    if t.past_cap >= t.max_entries then begin
      t.past_cap <- 0;
      index t (entries t.dir)
    end;
    while Hashtbl.length t.ages > t.max_entries do
      let s, fp = Queue.pop t.order in
      if Hashtbl.find_opt t.ages fp = Some s then begin
        Hashtbl.remove t.ages fp;
        match Sys.remove (path t fp) with
        | () -> t.prunes <- t.prunes + 1
        | exception Sys_error _ -> ()  (* already gone *)
      end
    done
  end

let tmp_seq = Atomic.make 0

let add t ~fingerprint ~winner placement =
  Spp_util.Fault.hit "store.write";
  let file = path t fingerprint in
  let tmp =
    Printf.sprintf "%s.tmp.%d.%d" file (Unix.getpid ()) (Atomic.fetch_and_add tmp_seq 1)
  in
  let body =
    Printf.sprintf "winner %s\n%s" winner (Spp_core.Io.placement_to_string placement)
  in
  Out_channel.with_open_text tmp (fun oc ->
      Out_channel.output_string oc (crc_prefix ^ Spp_util.Crc32.digest_hex body ^ "\n");
      Out_channel.output_string oc body);
  locked t (fun () ->
      Sys.rename tmp file;
      touch t fingerprint;
      prune_locked t)
