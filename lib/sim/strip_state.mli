(** The live strip: which task occupies which columns {e right now}.

    The offline solvers see the whole instance and emit a placement; the
    online simulator instead owns a [k]-column strip evolving over a
    virtual rational clock. A task committed at time [t] on columns
    [\[col_lo, col_lo + cols)] runs there until [t + duration] — the
    commitment is irrevocable in {e time} (a started task is never
    preempted or delayed) but a repacking may {e relocate} its columns
    mid-flight, which is exactly the migration the defragmentation
    literature charges for.

    Every occupancy interval is logged as a {!segment}, so an entire run
    can be checked for soundness after the fact (no two segments overlap
    in time × columns, chains are gapless, releases respected) by
    {!Sim.check} — the online counterpart of
    {!Spp_core.Validate}. *)

type resident = {
  id : int;
  cols : int;  (** column footprint (width · k) *)
  col_lo : int;  (** current leftmost column *)
  started : Spp_num.Rat.t;  (** commit time (never changes, even on moves) *)
  finish : Spp_num.Rat.t;  (** [started + duration] *)
}

(** One maximal interval during which a task occupied a fixed column
    range: [\[lo, lo + cols)] over [\[from_t, to_t)]. A task that is never
    migrated has exactly one segment. *)
type segment = {
  seg_id : int;
  seg_cols : int;
  seg_lo : int;
  seg_from : Spp_num.Rat.t;
  seg_to : Spp_num.Rat.t;
}

type t

(** [create ~k] is an empty strip of [k] columns at time 0.
    @raise Invalid_argument if [k < 1]. *)
val create : k:int -> t

val k : t -> int

(** Current virtual time. *)
val now : t -> Spp_num.Rat.t

(** [advance t time] moves the clock forward (monotone; equal is a no-op)
    and retires every resident with [finish <= time], returning them in
    (finish, id) order. Each retirement closes the resident's live
    segment at its exact finish instant.
    @raise Invalid_argument on a backwards step. *)
val advance : t -> Spp_num.Rat.t -> resident list

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

(** Float view of {!fragmentation} for reporting. *)
val fragmentation_f : t -> float

(** [first_fit t ~cols] is the leftmost [col_lo] with [cols] contiguous
    free columns, if any. @raise Invalid_argument if [cols] is not in
    [1..k]. *)
val first_fit : t -> cols:int -> int option

(** [place t ~id ~cols ~col_lo ~duration] commits a task at the current
    time. Irrevocable: the task occupies its columns until
    [now + duration].
    @raise Invalid_argument on overlap, out-of-range columns, a
    non-positive duration, or a duplicate live id. *)
val place : t -> id:int -> cols:int -> col_lo:int -> duration:Spp_num.Rat.t -> unit

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
    ones (their [seg_to] is the resident's finish) — the complete
    occupancy history of the run. *)
val segments : t -> segment list
