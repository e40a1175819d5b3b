(** The configuration LP of Lemma 3.3 and its exact solution.

    A {e configuration} is a multiset of (distinct) widths summing to at
    most 1 — a feasible horizontal cross-section of the strip. With phases
    delimited by the distinct release times [%0 = 0 < %1 < … < %R]
    (and [%{R+1} = ∞]), variable [x_{q,j}] is the height given to
    configuration [q] inside phase [j]:

    - objective (3.2): minimise [Σ_q x_{q,R}] (height beyond the last
      release);
    - packing (3.3): [Σ_q x_{q,j} <= %{j+1} − %j] for [j < R];
    - covering (3.4): for each suffix [k] and width [ω_i],
      [Σ_{j>=k} Σ_q a_{iq} x_{q,j} >= Σ_{j>=k} b_{i,k}] where [b] is the
      height demand of width [ω_i] released at [%j].

    The exact simplex returns a {e basic} optimum, so at most
    [(W+1)(R+1)] occurrences are nonzero — the quantity that bounds the
    rounding loss in Lemma 3.4. *)

type occurrence = {
  counts : int array;  (** multiplicity per width index *)
  phase : int;
  height : Spp_num.Rat.t;  (** the nonzero value of [x_{q,j}] *)
}

type solved = {
  widths : Spp_num.Rat.t array;  (** distinct widths, descending *)
  boundaries : Spp_num.Rat.t array;  (** phase starts: 0 and the releases *)
  lp_value : Spp_num.Rat.t;  (** optimal [Σ_q x_{q,R}] *)
  fractional_height : Spp_num.Rat.t;  (** [%R + lp_value] = OPT_f of the instance *)
  occurrences : occurrence list;  (** nonzero variables, sorted by phase *)
  num_configs : int;  (** configurations enumerated (Q) *)
}

(** [enumerate_configs ?max_configs widths] lists every multiset of the
    given widths with sum <= 1 as a counts vector (the empty configuration
    is excluded). Deterministic order.
    @raise Failure when more than [max_configs] (default 200_000) exist —
    the documented guard against exponential blow-up in 1/K. *)
val enumerate_configs : ?max_configs:int -> Spp_num.Rat.t array -> int array list

(** [solve inst] builds and exactly solves the LP for the instance's
    {e actual} distinct widths and release times. The instance is expected
    to already be reduced (few distinct widths/releases); the function
    itself poses no such requirement beyond {!enumerate_configs}' default
    cap. *)
val solve : Instance.Release.t -> solved
