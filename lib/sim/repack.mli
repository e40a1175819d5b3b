(** Min-disruption repacking: when fragmentation leaves total free
    capacity that no single window realises, relocate residents so the
    free columns become one contiguous run — moving as few cells as
    possible, because every moved cell is paid for (reconfiguration /
    state-migration cost in the FPGA reading of the paper).

    A plan is a set of simultaneous column moves for the current
    residents; its cost is the total column footprint of the tasks that
    actually change position. Applying any plan produced here drives
    {!Strip_state.fragmentation} to zero, so a triggered repack strictly
    decreases fragmentation whenever it was positive.

    Plans read only resident ids, widths and columns, never time, so the
    tick strip and the rational one get the same plan for the same
    layout. {!Reference} is this module on {!Strip_state.Reference},
    kept as the oracle. *)

type plan = {
  moves : (int * int) list;  (** (task id, new col_lo), only real moves *)
  cells : int;  (** total cols of moved tasks — the disruption *)
}

(** Left-compaction in ascending current-column order: simple, linear,
    and already optimal whenever the stuck residents are the left-most
    ones. Never worse than moving everything. *)
val greedy : Strip_state.t -> plan

(** Exhaustive min-cost search over all defragmented layouts (orderings
    of the residents around a single free gap), with incumbent pruning
    and an admissible lower bound from the subset sums of the residents'
    widths, a table over [0..k] (a resident whose current column is
    neither a subset sum nor one shifted by the free gap must move). Returns [None] when there are more than [max_residents]
    residents (default 7, the exact-solver gate used elsewhere). *)
val exact : ?max_residents:int -> Strip_state.t -> plan option

(** Best available plan: {!exact} when the instance is small enough,
    {!greedy} otherwise. *)
val best : ?max_residents:int -> Strip_state.t -> plan

(** The same plans for the rational strip; the subset sums are a sorted
    list there. *)
module Reference : sig
  type nonrec plan = plan = {
    moves : (int * int) list;
    cells : int;
  }

  val greedy : Strip_state.Reference.t -> plan
  val exact : ?max_residents:int -> Strip_state.Reference.t -> plan option
  val best : ?max_residents:int -> Strip_state.Reference.t -> plan
end
