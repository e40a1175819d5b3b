(** Minimal JSON values, parser and printer: the one JSON codec.

    The repository is dependency-sealed (no yojson), so it carries its
    own JSON: the full value grammar, one-line compact printing, and a
    recursive-descent parser that returns [Error] instead of raising on
    malformed input — a junk byte from a client must become an error
    reply, never a crash. Everything that writes JSON builds a {!t} and
    prints it here: the wire protocol, the JSON-lines log
    ({!Spp_obs.Log}), the span trees ({!Spp_obs.Trace.tree}), the
    [--stats-json] lines and the bench tables. A span tree crosses a hop
    as a {!t} value, never as text printed only to be parsed again.

    Numbers parse to {!Int} when they are integral and fit an OCaml [int],
    to {!Float} otherwise; the printer keeps the distinction ([Float 2.]
    prints as ["2.0"]) so values round-trip. Strings are full UTF-8 with
    the standard escapes (including [\uXXXX] with surrogate pairs). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(** [to_string v] is compact one-line JSON: control characters (newlines
    included) are escaped, so the output never contains ['\n'] and can be
    framed by newline-delimiting. Non-finite floats print as [null]. *)
val to_string : t -> string

(** [of_string s] parses exactly one JSON value (surrounding whitespace
    allowed; trailing garbage is an error). Never raises. *)
val of_string : string -> (t, string) result

(** {2 Accessors} — all total, [None] on a type mismatch. *)

(** [member name v] is the field [name] of object [v]. *)
val member : string -> t -> t option

val get_string : t -> string option
val get_bool : t -> bool option
val get_int : t -> int option

(** [get_float] accepts both {!Float} and {!Int}. *)
val get_float : t -> float option

val get_list : t -> t list option
