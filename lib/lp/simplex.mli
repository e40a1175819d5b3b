(** Two-phase primal simplex over an abstract scalar field.

    Pricing uses Dantzig's rule (fast in practice) with a
    permanent-until-progress fallback to Bland's rule after a run of
    degenerate pivots, so termination is guaranteed for the exact field.
    Solving a model returns a {e basic} optimal solution — the property
    the paper's Lemma 3.3 relies on to bound the number of configuration
    occurrences by the number of constraints, which in turn drives the
    additive loss of Lemma 3.4.

    Not polynomial time in the worst case (the paper cites ellipsoid /
    Karmarkar for that); DESIGN.md documents this substitution — instance
    sizes here make simplex the pragmatic exact choice.

    For column generation the solver also exposes a {e restricted master}
    interface ({!Make.Restricted}, re-exported as {!Exact.Restricted}): the
    optimal tableau is kept alive between pricing rounds, newly priced
    columns are appended as [B{^-1}a] (assembled from the identity columns
    dual recovery already tracks), and reoptimisation continues primal
    simplex from the current basis — collapsing per-round pivot counts
    compared to re-solving every restricted LP from scratch.

    {2 The tableau, on its nonzeros}

    The tableau is stored densely but updated only where it is nonzero:
    a pivot divides and eliminates over the pivot row's support alone,
    and building a reduced-cost row or assembling [B{^-1}a] skips every
    zero entry. An entry is skipped exactly when [F.is_zero] holds, where
    the dense update would compute [x - f·0] or [0/p]. For {!Field.Rat}
    that is an identity (zero has the one form 0/1), so {!Exact} computes
    the dense tableau entry for entry: the same Dantzig and Bland choices,
    the same dropped rows, duals and pivot counts. For {!Field.Float} the
    skip uses the pivot tolerance, so results may differ below it.

    Rows keep spare capacity: an appended column is written into slot
    [cols] of each row and the rhs moves up one slot, and only a row
    that is full is copied, into an array twice its size.

    {!Reference} keeps the dense tableau this replaced, over exact
    rationals: the oracle for the tests, the [diff.simplex] fuzz
    property and bench row T9r, and on no production path.

    {2 On one-word rationals}

    {!Exact} runs [Make (Field.Word)], whose values are normalised
    rationals with both parts below 2{^30} packed into one immediate
    int, and converts its results to {!Spp_num.Rat}. Each word operation
    returns exactly the value {!Field.Rat} returns or raises
    {!Field.Word.Overflow}, and [is_zero] and [compare] agree with Rat's,
    so up to an overflow every tableau entry, pivot choice, ratio-test
    tie, dropped row, dual, solution and pivot count is the boxed one.

    When the model or an intermediate value leaves the word range,
    {!Exact.solve} drops the attempt and re-solves with
    [Make (Field.Rat)]. An {!Exact.Restricted} master builds a boxed
    master from its (copied) model, replays its logged appends and
    reoptimizes in order, takes the failing step there and stays boxed.
    So the input alone decides which field answers, and the answer is
    the same either way. {!Exact.fallbacks} counts these events.

    Pivots reach {!Spp_obs.Profile} once per [solve], [create] or
    [reoptimize], on every exit path. An abandoned word attempt's pivots
    are dropped and a replay's are not reported again, so the profile
    always reads what the boxed solver (and {!Reference}) reports. *)

type 'a result =
  | Optimal of { objective : 'a; solution : 'a array; duals : 'a array }
      (** [solution] has one entry per model variable; at most
          [num_constraints] entries are nonzero (basicness). [duals] has one
          entry per constraint (in insertion order): the marginal change of
          the optimal objective per unit increase of that constraint's
          right-hand side (0 for constraints dropped as redundant). Used by
          the column-generation pricing in {!Spp_core.Config_colgen}. *)
  | Infeasible
  | Unbounded

module Make (F : Field.S) : sig
  (** [solve model] minimises the model objective over its feasible region.
      All model variables are implicitly non-negative. *)
  val solve : Model.t -> F.t result

  (** [solve_max_iters model ~max_iters] bounds pivot count (safety valve for
      the float instance, which tolerance-compare could in principle cycle).
      @raise Failure if the bound is hit. *)
  val solve_max_iters : Model.t -> max_iters:int -> F.t result

  (** Warm-started restricted master for column generation. *)
  module Restricted : sig
    type t

    (** [create model] solves [model] to optimality and keeps the final
        tableau (basis, reduced costs, dual bookkeeping) alive so columns
        can be appended and the solve continued. *)
    val create : ?max_iters:int -> Model.t -> [ `Optimal of t | `Infeasible | `Unbounded ]

    (** Current optimal objective value. Only meaningful at an optimum
        (after [create] or a successful {!reoptimize}). *)
    val objective : t -> F.t

    (** Solution values: one entry per original model variable followed by
        one per appended column, in append order. *)
    val solution : t -> F.t array

    (** Dual value per original constraint, insertion order (0 for rows
        dropped as redundant) — same convention as {!result}. *)
    val duals : t -> F.t array

    (** Number of columns appended so far. *)
    val num_appended : t -> int

    (** [add_column rm ~obj ~entries] appends a variable with objective
        coefficient [obj] and [entries] = (constraint index, coefficient)
        pairs over the {e original} constraints. The new variable enters
        nonbasic at 0, so the current basis stays feasible; call
        {!reoptimize} after a batch of appends. Returns [`Needs_rebuild]
        when phase 1 dropped a redundant row — the dropped row's linear
        dependency need not extend to new columns, so the caller must
        rebuild the master from scratch (sound, merely colder). *)
    val add_column :
      t -> obj:Spp_num.Rat.t -> entries:(int * Spp_num.Rat.t) list -> [ `Added | `Needs_rebuild ]

    (** Continue primal simplex from the current feasible basis, admitting
        appended columns as entering candidates. *)
    val reoptimize : t -> [ `Optimal | `Unbounded ]
  end
end

(** {!Make.Restricted} over exact rationals: the master {!Exact} and
    {!Reference} both expose. *)
module type RESTRICTED = sig
  type t

  val create :
    ?max_iters:int -> Model.t -> [ `Optimal of t | `Infeasible | `Unbounded ]

  val objective : t -> Spp_num.Rat.t
  val solution : t -> Spp_num.Rat.t array
  val duals : t -> Spp_num.Rat.t array
  val num_appended : t -> int

  val add_column :
    t -> obj:Spp_num.Rat.t -> entries:(int * Spp_num.Rat.t) list -> [ `Added | `Needs_rebuild ]

  val reoptimize : t -> [ `Optimal | `Unbounded ]
end

(** Exact solver over rationals, pivoting on {!Field.Word} and falling
    back to {!Field.Rat} (see the header). *)
module Exact : sig
  val solve : Model.t -> Spp_num.Rat.t result

  (** [create] copies its model, so changing the model afterwards does not
      reach the master. *)
  module Restricted : RESTRICTED

  (** Word attempts abandoned for the boxed field so far in this process:
      one per {!solve} and at most one per master. *)
  val fallbacks : unit -> int
end

(** Floating-point solver (tolerance-based pivoting). *)
module Approx : sig
  val solve : Model.t -> float result
end

(** The dense tableau {!Make} replaced, applied to {!Field.Rat}: every
    update runs over all [cols + 1] slots and every append copies every
    row. It returns what {!Exact} returns, pivot for pivot; it is the
    oracle, never a production path. *)
module Reference : sig
  val solve : Model.t -> Spp_num.Rat.t result

  module Restricted : RESTRICTED
end
