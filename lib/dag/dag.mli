(** Directed acyclic graphs over integer node ids (rectangle ids).

    The precedence structure of Section 2: an edge [(s, s')] means rectangle
    [s] must finish (top edge) no higher than [s'] starts (bottom edge),
    i.e. [y_s + h_s <= y_{s'}]. Construction rejects cycles eagerly, so
    every value of type {!t} is a genuine DAG. All traversals are
    deterministic (ids are visited in increasing order) so experiment output
    is reproducible. *)

type t

(** [empty] has no nodes. *)
val empty : t

(** [of_edges ~nodes ~edges] builds the DAG.
    @raise Invalid_argument if an edge endpoint is not in [nodes], an edge
    is duplicated, a self-loop appears, or the graph has a cycle. *)
val of_edges : nodes:int list -> edges:(int * int) list -> t

val nodes : t -> int list

val edges : t -> (int * int) list

(** [iter_edges t f] calls [f u v] on every edge [(u, v)], in the order of
    {!edges}, without building that list. *)
val iter_edges : t -> (int -> int -> unit) -> unit

val num_nodes : t -> int
val num_edges : t -> int
val mem : t -> int -> bool

(** [preds t v] is the in-neighbourhood [IN(v)] (paper's notation), sorted. *)
val preds : t -> int -> int list

(** [succs t v] is the out-neighbourhood, sorted. *)
val succs : t -> int -> int list

val has_edge : t -> int -> int -> bool

(** Nodes with no predecessors, sorted. *)
val roots : t -> int list

(** Nodes with no successors, sorted. *)
val sinks : t -> int list

(** [topo_order t] is a topological order (Kahn's algorithm with a min-id
    tie-break, hence unique and deterministic). *)
val topo_order : t -> int list

(** [induced t keep] is the subgraph on the nodes satisfying [keep], with
    only the edges between kept nodes — exactly the "subgraph of the
    original DAG induced by S" that DC recomputes on each recursive call
    (Algorithm 1, line 2). Note this does {e not} take the transitive
    closure: DC never needs it because its splits are downward-closed. *)
val induced : t -> (int -> bool) -> t

(** [reachable t v] is the set of nodes reachable from [v] (including [v])
    as a sorted list. *)
val reachable : t -> int -> int list

(** [transitive_closure t] has an edge (u,v) whenever [t] has a directed
    path u → v with u ≠ v. *)
val transitive_closure : t -> t

(** [transitive_reduction t] is the unique minimal DAG with the same
    reachability (the Hasse diagram): edges implied by longer paths are
    dropped. Precedence instances are often given redundantly; packing
    algorithms behave identically on the reduction but traversals shrink. *)
val transitive_reduction : t -> t

(** [is_comparable t u v] is [true] when a directed path joins [u] and [v]
    in either direction (the negation of the independence two rectangles
    need to share a horizontal band). *)
val is_comparable : t -> int -> int -> bool

(** [longest_path_to t ~weight] computes the paper's function [F]:
    [F(v) = weight v] if [IN(v) = ∅], else
    [F(v) = weight v + max_{u ∈ IN(v)} F(u)].
    Returns a lookup function backed by a memo table; total O(V + E).
    Weights may be any totally ordered semigroup values combined by the
    caller; here they are rationals (heights). *)
val longest_path_to : t -> weight:(int -> Spp_num.Rat.t) -> int -> Spp_num.Rat.t

(** [longest_path_length t] is the maximum number of {e nodes} on any
    directed path (0 on the empty DAG) — the lower bound used in
    Lemma 2.5's skip argument. *)
val longest_path_length : t -> int

(** [is_chain_free t between] is [true] when no two nodes satisfying
    [between] are connected by a direct edge. Used to verify Lemma 2.1
    (independence of the middle band). *)
val independent : t -> (int -> bool) -> bool

val pp : Format.formatter -> t -> unit
