(** Declarative linear-program models.

    A model is a set of non-negative variables, a linear objective to
    {e minimise}, and linear constraints. Coefficients are exact rationals;
    each solver instance converts them into its own field. The APTAS of
    Section 3 builds its configuration LP (objective (3.2), packing
    constraints (3.3), covering constraints (3.4)) through this interface. *)

type op = Le | Ge | Eq

(** A variable handle; also its column index, 0-based in creation order. *)
type var = int

type t

(** [create ()] is an empty model. *)
val create : unit -> t

(** [copy t] is a model equal to [t] that later changes to [t] do not
    reach. *)
val copy : t -> t

(** [add_var t ~name] declares a fresh non-negative variable. *)
val add_var : t -> name:string -> var

(** [num_vars t] is the number of declared variables. *)
val num_vars : t -> int

val var_name : t -> var -> string

(** [set_objective t terms] sets the minimisation objective [Σ c_i x_i].
    Variables absent from [terms] have coefficient zero. *)
val set_objective : t -> (var * Spp_num.Rat.t) list -> unit

val objective : t -> (var * Spp_num.Rat.t) list

(** [add_constraint t ~name terms op rhs] appends [Σ terms (op) rhs].
    @raise Invalid_argument on an undeclared variable. *)
val add_constraint : t -> name:string -> (var * Spp_num.Rat.t) list -> op -> Spp_num.Rat.t -> unit

val num_constraints : t -> int

(** Constraints in insertion order: [(name, terms, op, rhs)]. *)
val constraints : t -> (string * (var * Spp_num.Rat.t) list * op * Spp_num.Rat.t) list

(** [eval_constraint terms solution] is [Σ c_i x_i] under [solution]. *)
val eval_terms : (var * Spp_num.Rat.t) list -> Spp_num.Rat.t array -> Spp_num.Rat.t

(** [is_feasible t solution] checks every constraint and non-negativity
    exactly; the independent certificate used by tests. *)
val is_feasible : t -> Spp_num.Rat.t array -> bool

(** Human-readable rendering (for debugging and the CLI). *)
val pp : Format.formatter -> t -> unit
