(** The live strip: which task occupies which columns {e right now}.

    The offline solvers see the whole instance and emit a placement; the
    online simulator instead owns a [k]-column strip evolving over a
    virtual clock. A task committed at time [t] on columns
    [\[col_lo, col_lo + cols)] runs there until [t + duration] — the
    commitment is irrevocable in {e time} (a started task is never
    preempted or delayed) but a repacking may {e relocate} its columns
    mid-flight, which is exactly the migration the defragmentation
    literature charges for.

    Every occupancy interval is logged as a {!segment}, so an entire run
    can be checked for soundness after the fact (no two segments overlap
    in time × columns, chains are gapless, releases respected) by
    {!Sim.check} — the online counterpart of
    {!Spp_core.Validate}.

    {2 Ticks}

    The clock counts integer {e ticks}: {!Sim.run} picks a scale [s] (the
    lcm of the instance's height and release denominators, see
    {!Spp_num.Scale}) and tick [x] is strip time [x/s]. The strip keeps a
    column mask, the free-column count and a min-heap of residents on
    (finish, id), updated on every place, retire and move, so no query
    rebuilds anything: {!next_finish} and {!free_cols} are O(1),
    {!first_fit} and {!largest_free_run} one scan of the [k] columns.
    Closed segments are logged as tick records and become rationals
    only in {!segments}. The caller keeps every tick within
    {!Spp_num.Scale.limit} (Sim's guard does), so no sum here wraps.

    {!Reference} is the rational strip this module started as: the
    oracle for the tests and the strip {!Sim.Reference.run} runs on. *)

type resident = {
  id : int;
  cols : int;  (** column footprint (width · k) *)
  col_lo : int;  (** current leftmost column *)
  started : int;  (** commit tick (never changes, even on moves) *)
  finish : int;  (** [started + duration] *)
}

(** One maximal interval during which a task occupied a fixed column
    range: [\[lo, lo + cols)] over [\[from_t, to_t)], in strip time. A
    task that is never migrated has exactly one segment. *)
type segment = {
  seg_id : int;
  seg_cols : int;
  seg_lo : int;
  seg_from : Spp_num.Rat.t;
  seg_to : Spp_num.Rat.t;
}

type t

(** [create ~k] is an empty strip of [k] columns at tick 0.
    @raise Invalid_argument if [k < 1]. *)
val create : k:int -> t

val k : t -> int

(** Current tick. *)
val now : t -> int

(** [advance t tick] moves the clock forward (monotone; equal is a no-op)
    and retires every resident with [finish <= tick], returning them in
    (finish, id) order. Each retirement closes the resident's live
    segment at its exact finish tick.
    @raise Invalid_argument on a backwards step. *)
val advance : t -> int -> resident list

(** The earliest finish tick of a resident, [max_int] when the strip is
    empty. *)
val next_finish : t -> int

(** The residents, by id. *)
val residents : t -> resident list

val resident_count : t -> int

(** Columns not covered by any resident. *)
val free_cols : t -> int

(** Length of the longest contiguous free column run (0 when full). *)
val largest_free_run : t -> int

(** The fragmentation metric, exact: [1 - largest_free_run / free_cols],
    and [0] when the strip is full ({e or} when all free space is one
    run). 0 = free space fully usable by a task as wide as it is free;
    approaching 1 = free space shattered into slivers. *)
val fragmentation : t -> Spp_num.Rat.t

(** [first_fit t ~cols] is the leftmost [col_lo] with [cols] contiguous
    free columns, if any. @raise Invalid_argument if [cols] is not in
    [1..k]. *)
val first_fit : t -> cols:int -> int option

(** [place t ~id ~cols ~col_lo ~duration] commits a task at the current
    tick for [duration] ticks. Irrevocable: the task occupies its columns
    until [now + duration].
    @raise Invalid_argument on overlap, out-of-range columns, a
    non-positive duration, or a duplicate live id. *)
val place : t -> id:int -> cols:int -> col_lo:int -> duration:int -> unit

(** [apply_moves t moves] relocates residents atomically: [moves] is a
    list of [(id, new_col_lo)]. The {e final} configuration is validated
    (pairwise disjoint, in range) before anything mutates, so a plan that
    permutes residents through each other's old slots is fine. Ids whose
    target equals their current [col_lo] are ignored. Each genuinely
    moved resident's live segment is closed at [now] and a new one
    opened.
    @raise Invalid_argument on an unknown id or an invalid final
    configuration (nothing is mutated in that case). *)
val apply_moves : t -> (int * int) list -> unit

(** All segments logged so far, closed ones in closing order, then live
    ones by id (their [seg_to] is the resident's finish) — the complete
    occupancy history of the run, with tick [x] as time [x/scale]. *)
val segments : t -> scale:int -> segment list

(** The strip on a rational clock, with a table of residents from which
    each query rebuilds the column occupancy: the differential-testing
    oracle for the tick strip, and the strip of {!Sim.Reference.run}.
    Same contracts as above, with times and durations in strip time. *)
module Reference : sig
  type resident = {
    id : int;
    cols : int;
    col_lo : int;
    started : Spp_num.Rat.t;
    finish : Spp_num.Rat.t;
  }

  type t

  val create : k:int -> t
  val k : t -> int
  val now : t -> Spp_num.Rat.t
  val advance : t -> Spp_num.Rat.t -> resident list
  val residents : t -> resident list
  val resident_count : t -> int
  val free_cols : t -> int
  val largest_free_run : t -> int
  val fragmentation : t -> Spp_num.Rat.t
  val first_fit : t -> cols:int -> int option

  val place :
    t -> id:int -> cols:int -> col_lo:int -> duration:Spp_num.Rat.t -> unit

  val apply_moves : t -> (int * int) list -> unit
  val segments : t -> segment list
end
