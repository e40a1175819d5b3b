(** Bounded LRU cache with string keys and hit/miss/eviction accounting.

    The engine keys it by {!Fingerprint} so repeated and batch workloads
    skip recomputation. Mutex-protected: safe to share across domains
    (lookups from the coordinator while racers run elsewhere). *)

type 'a t

type stats = { hits : int; misses : int; evictions : int; size : int }

(** [create ~capacity] — [capacity >= 1] entries.
    @raise Invalid_argument on [capacity < 1]. *)
val create : capacity:int -> 'a t

val capacity : 'a t -> int
val length : 'a t -> int

(** [find t key] returns the cached value and promotes it to
    most-recently-used. Counts a hit or a miss. *)
val find : 'a t -> string -> 'a option

(** [find_hit t key] is {!find} for a caller that counts its own
    misses: a present key is promoted and counted as a hit, an absent one
    counts nothing. *)
val find_hit : 'a t -> string -> 'a option

(** [mem t key] — no promotion, no accounting. *)
val mem : 'a t -> string -> bool

(** [add t key v] inserts or replaces, promoting to most-recently-used and
    evicting the least-recently-used entry when over capacity. *)
val add : 'a t -> string -> 'a -> unit

val stats : 'a t -> stats
