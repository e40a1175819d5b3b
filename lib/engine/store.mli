(** Disk persistence for solved instances, keyed by {!Fingerprint}.

    One file per fingerprint under a cache directory:

    {v
    crc32 <hex>
    winner <solver-name>
    height <h>
    place <id> <x> <y>
    ...
    v}

    (the body after the checksum line is exactly
    {!Spp_core.Io.placement_to_string}, so entries are exact-rational and
    round-trip bit-identically). The [crc32] line covers every byte after
    it; a mismatch on load degrades to a miss and bumps {!corrupt}
    (surfaced as [spp_store_corrupt_total]). Entries written before the
    checksum existed (no [crc32] line) still load. Lets separate [spp]
    processes share work; the engine additionally validates every loaded
    placement before trusting it, so even a checksum-clean-but-stale file
    degrades to a miss.

    Fault points (see {!Spp_util.Fault}): [store.read] makes {!find}
    return [None]; [store.write] makes {!add} raise [Injected].

    The store is bounded: above [max_entries] the oldest entries are
    pruned on insertion, so a long-running daemon cannot grow the
    directory without limit. Age is kept in memory: {!create} seeds it
    from the directory, oldest mtime first; a new entry joins the young
    end and a replaced one moves there (its rename gave it a fresh
    mtime); pruning deletes from the old end. A write touches the
    directory listing only once every [max_entries] writes past the cap,
    when the index is rebuilt from the directory's mtimes, so entries
    other processes wrote are pruned too. Orphaned temp files left by
    crashed writers are removed on {!create}. Mutex-protected — one store
    may be shared by worker domains. *)

type t

(** Default entry cap for {!create} (512). *)
val default_max_entries : int

(** [create ~dir] opens (creating directories as needed) a store rooted at
    [dir], removing any orphaned [*.tmp.*] files. [max_entries] bounds the
    number of [.sol] entries (default {!default_max_entries}).
    @raise Sys_error / Unix errors if the path cannot be created.
    @raise Invalid_argument on [max_entries < 1]. *)
val create : ?max_entries:int -> dir:string -> unit -> t

val dir : t -> string
val max_entries : t -> int

(** [length t] is the current entry count (exact for this process's
    writes; entries other processes write to the same directory are
    counted from the next directory listing on). *)
val length : t -> int

(** [prunes t] is how many entries capacity pruning has deleted over this
    store's lifetime, each counted once — surfaced as the
    [spp_store_prunes_total] metric. *)
val prunes : t -> int

(** [corrupt t] is how many entries failed their checksum on load over
    this store's lifetime — surfaced as [spp_store_corrupt_total]. *)
val corrupt : t -> int

(** [find t ~rects ~fingerprint] loads and parses the entry, binding
    positions to [rects] by id. Any error (absent, unreadable, malformed,
    unknown ids) is [None]. Returns [(winner, placement)]. *)
val find :
  t -> rects:Spp_geom.Rect.t list -> fingerprint:string ->
  (string * Spp_geom.Placement.t) option

(** [add t ~fingerprint ~winner placement] writes the entry atomically
    (unique temp file + rename), replacing any previous one, makes it the
    youngest, then prunes the oldest entries while the store exceeds its
    cap. *)
val add : t -> fingerprint:string -> winner:string -> Spp_geom.Placement.t -> unit
