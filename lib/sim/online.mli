(** Online packing policies: who gets committed to the live strip, when.

    Both policies are deterministic functions of the strip state and the
    pending queue; neither ever delays a task it has decided to place
    (commits are irrevocable, enforced by {!Strip_state}).

    {b First-fit} places each pending task, in arrival order, at the
    leftmost column window that fits, the moment one exists — the
    classic greedy the shelf algorithms of the paper's Section 1 FPGA
    setting reduce to when decisions are forced at arrival.

    {b Buffered(b)} is the lookahead variant: it may hold up to [b]
    pending tasks while the strip is busy and more arrivals are coming,
    then flushes widest-first — trading latency for packing quality on
    bursts, where arrival order is adversarially interleaved. It never
    holds when the strip is idle, when the buffer overflows, or once the
    stream ends, so it cannot deadlock.

    {!step} runs on the tick strip over a {!queue} of arrival indices:
    the pending tasks sit in a FIFO array, a flush orders them by a
    stable counting sort on width, and placed entries are dropped in one
    compaction, so a step allocates nothing. {!Reference.step} is the
    list-based step over the rational strip, kept as the oracle. *)

type t =
  | First_fit
  | Buffered of int  (** lookahead buffer capacity, >= 1 *)

(** [parse s] reads ["first-fit"] (or ["ff"]) and ["buffered"] /
    ["buffered:K"] (default K = {!default_lookahead}). *)
val parse : string -> (t, string) result

val to_string : t -> string

val default_lookahead : int

(** The pending queue of a run on ticks. Arrival [i] of the run is
    [(ids.(i), cols.(i), durations.(i))], with the duration in ticks and
    [cols.(i) >= 1], and the index order is the arrival order. *)
type queue

(** [queue ~ids ~cols ~durations] is an empty queue over these arrivals. *)
val queue : ids:int array -> cols:int array -> durations:int array -> queue

(** [push q i] appends arrival [i]; each arrival is pushed at most once,
    in index order. *)
val push : queue -> int -> unit

val length : queue -> int

(** [step policy strip q ~more_arrivals ~placed] places whatever the
    policy commits at the strip's current tick (mutating [strip]),
    calls [placed i] for each placed arrival in placement order, and
    leaves the rest in [q] in arrival order. *)
val step :
  t -> Strip_state.t -> queue -> more_arrivals:bool -> placed:(int -> unit) -> unit

(** The list-based step on the rational strip. [step policy strip
    ~pending ~more_arrivals] returns [(placed, still_pending)]: each
    placed arrival paired with its column, in placement order, and the
    rest in arrival order. *)
module Reference : sig
  val step :
    t ->
    Strip_state.Reference.t ->
    pending:Arrivals.arrival list ->
    more_arrivals:bool ->
    (Arrivals.arrival * int) list * Arrivals.arrival list
end
