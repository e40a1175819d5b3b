(** Column generation for the configuration LP (Gilmore–Gomory pricing).

    {!Config_lp.solve} enumerates every configuration up front — fine for
    the paper's constant K but exponential in 1/K. This solver instead
    grows a restricted configuration pool: solve the restricted LP exactly,
    read the duals, and for each phase price a new configuration with a
    bounded knapsack (capacity = the strip, item values = accumulated
    covering duals), repeating until no column has negative reduced cost.

    Pricing values pass through floats (knapsack DP), so termination is
    declared at a small tolerance; on every instance in the test suite the
    result coincides exactly with full enumeration, and the final answer is
    always the exact optimum of the {e restricted} LP (a true upper bound on
    nothing / lower bound on the integral optimum, like the full LP).

    Widths must share a common denominator [<= 100_000] (they do by
    construction for column-quantised instances, where it is K).

    The restricted LP is {e warm-started} at two levels. Within a solve,
    one {!Spp_lp.Simplex.Exact.Restricted} master persists across pricing
    rounds: priced columns are appended to the incumbent optimal tableau
    and simplex continues from the current basis, instead of rebuilding and
    re-solving the restricted LP every round. Across solves, an optional
    {!warm} pool remembers each converged configuration pool keyed by width
    signature, so a later solve over the same widths starts with the
    columns the previous one had to generate — observable as collapsed
    [spp_colgen_rounds_total] / pivot counts. *)

(** Cross-call warm-start state: converged configuration pools keyed by
    width signature. Safe to reuse across any sequence of solves — entries
    only seed the initial pool, never bypass pricing, so results are
    identical LP optima either way. Not domain-safe; share per worker. *)
type warm

(** A fresh, empty warm-start pool. *)
val warm_start : unit -> warm

(** [solve ?warm inst] returns the same record
    as {!Config_lp.solve}, with [num_configs] the size of the generated
    pool. [cancel] (default [Spp_util.Cancel.never]) is polled before every
    pricing round; a tripped token aborts with [Spp_util.Cancel.Cancelled].
    [warm] seeds the configuration pool from previous solves and stores the
    converged pool back (see {!warm}).
    @raise Failure when widths have no common denominator up to 100_000
    or 200 pricing rounds pass without convergence. *)
val solve :
  ?cancel:Spp_util.Cancel.t ->
  ?warm:warm ->
  Instance.Release.t ->
  Config_lp.solved
