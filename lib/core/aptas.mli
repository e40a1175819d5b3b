(** Algorithm 2: the asymptotic PTAS for strip packing with release times
    (Theorem 3.5).

    Pipeline, with ε' = ε/3, R = ⌈1/ε'⌉, W = ⌈1/ε'⌉·K·(R+1):
    + reduce [P] to [P(R)] (release rounding, Lemma 3.1, cost ≤ 1+ε');
    + reduce [P(R)] to [P(R,W)] (width grouping, Lemma 3.2, cost ≤ 1+ε');
    + solve the configuration LP exactly (Lemma 3.3; a basic optimum has at
      most (W+1)(R+1) nonzero occurrences);
    + round the fractional solution to an integral packing by greedy column
      filling (Lemma 3.4; additive loss ≤ number of occurrences).

    The result packs the {e original} rectangles (reductions only enlarge
    widths and releases, so positions transfer verbatim) and carries the
    certified height accounting used by tests:
    [height <= fractional_height + occurrences] and
    [fractional_height <= (1+ε')²·OPT_f(P)], hence
    [lower_bound = fractional_height/(1+ε')² <= OPT(P)]. *)

type result = {
  placement : Spp_geom.Placement.t;  (** integral packing of the original instance *)
  height : Spp_num.Rat.t;
  fractional_height : Spp_num.Rat.t;  (** [%R +] LP optimum on P(R,W) *)
  lower_bound : Spp_num.Rat.t;  (** certified lower bound on OPT of P *)
  occurrences : int;  (** nonzero configuration occurrences used *)
  max_occurrences : int;  (** the (W+1)(R+1) bound of Lemma 3.3 *)
  num_configs : int;
  num_widths : int;  (** distinct widths after grouping (≤ W) *)
  num_phases : int;  (** phases in the LP (≤ R+2) *)
  r_param : int;  (** R *)
  w_param : int;  (** W *)
  fallback_rects : int;  (** rectangles placed by the NFDH safety net (0 in
                             every observed run; nonzero would indicate a
                             covering-argument violation) *)
}

(** [solve ~epsilon inst] runs the full pipeline. [solver] picks how the
    configuration LP is solved: [`Enumerate] (default; {!Config_lp}, all
    configurations up front) or [`Column_generation] ({!Config_colgen};
    scales to larger K by pricing configurations on demand). [cancel]
    (default [Spp_util.Cancel.never]) is polled between pipeline stages
    (after release rounding, after width grouping, after the LP), inside
    column generation, and per occurrence during the integral rounding; a
    tripped token aborts with [Spp_util.Cancel.Cancelled].
    @raise Invalid_argument if [epsilon <= 0].
    @raise Failure if the configuration count exceeds 200_000 under
    [`Enumerate] — choose a larger ε, a smaller K, or
    [`Column_generation]. *)
val solve :
  ?cancel:Spp_util.Cancel.t ->
  ?solver:[ `Enumerate | `Column_generation ] ->
  epsilon:Spp_num.Rat.t ->
  Instance.Release.t ->
  result

(** [strip ~epsilon ~k rects] — the degenerate single-release case: a
    Kenyon–Rémila-style APTAS for {e plain} strip packing (the ancestor
    result the paper's Section 3 generalises; all releases 0 makes
    Lemma 3.1 a no-op and collapses the LP to one phase). Same width
    assumption ([w ∈ [1/k, 1]]) and height cap ([h <= 1]) as [solve],
    whose default configuration LP it runs.
    @raise Invalid_argument on violated assumptions or [epsilon <= 0]. *)
val strip :
  epsilon:Spp_num.Rat.t ->
  k:int ->
  Spp_geom.Rect.t list ->
  result
