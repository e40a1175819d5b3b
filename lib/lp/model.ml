module Rat = Spp_num.Rat

type op = Le | Ge | Eq
type var = int

type constr = { cname : string; terms : (var * Rat.t) list; cop : op; rhs : Rat.t }

type t = {
  mutable names : string list; (* reversed *)
  mutable nvars : int;
  mutable objective : (var * Rat.t) list;
  mutable constrs : constr list; (* reversed *)
}

let create () = { names = []; nvars = 0; objective = []; constrs = [] }

(* The lists are never mutated in place, so sharing them is a copy. *)
let copy t = { t with nvars = t.nvars }

let add_var t ~name =
  let v = t.nvars in
  t.names <- name :: t.names;
  t.nvars <- v + 1;
  v

let num_vars t = t.nvars

let var_name t v =
  if v < 0 || v >= t.nvars then invalid_arg "Model.var_name: no such variable";
  List.nth t.names (t.nvars - 1 - v)

let check_terms t terms =
  List.iter
    (fun (v, _) -> if v < 0 || v >= t.nvars then invalid_arg "Model: undeclared variable in terms")
    terms

let set_objective t terms =
  check_terms t terms;
  t.objective <- terms

let objective t = t.objective

let add_constraint t ~name terms op rhs =
  check_terms t terms;
  t.constrs <- { cname = name; terms; cop = op; rhs } :: t.constrs

let num_constraints t = List.length t.constrs

let constraints t = List.rev_map (fun c -> (c.cname, c.terms, c.cop, c.rhs)) t.constrs

let eval_terms terms solution =
  List.fold_left (fun acc (v, c) -> Rat.add acc (Rat.mul c solution.(v))) Rat.zero terms

let is_feasible t solution =
  Array.length solution = t.nvars
  && Array.for_all (fun x -> Rat.sign x >= 0) solution
  && List.for_all
       (fun c ->
         let lhs = eval_terms c.terms solution in
         match c.cop with
         | Le -> Rat.compare lhs c.rhs <= 0
         | Ge -> Rat.compare lhs c.rhs >= 0
         | Eq -> Rat.equal lhs c.rhs)
       t.constrs

let pp_op fmt = function
  | Le -> Format.pp_print_string fmt "<="
  | Ge -> Format.pp_print_string fmt ">="
  | Eq -> Format.pp_print_string fmt "="

let pp_terms t fmt terms =
  let first = ref true in
  List.iter
    (fun (v, c) ->
      if not !first then Format.fprintf fmt " + ";
      first := false;
      Format.fprintf fmt "%s*%s" (Rat.to_string c) (var_name t v))
    terms;
  if !first then Format.pp_print_string fmt "0"

let pp fmt t =
  Format.fprintf fmt "minimize %a@." (pp_terms t) t.objective;
  List.iter
    (fun c ->
      Format.fprintf fmt "  [%s] %a %a %s@." c.cname (pp_terms t) c.terms pp_op c.cop
        (Rat.to_string c.rhs))
    (List.rev t.constrs)
