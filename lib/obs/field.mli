(** The structured-data atom shared by the whole observability layer:
    log lines, telemetry events, and trace span annotations all carry
    [(string * Field.t) list] payloads, and all of them print through
    the one JSON codec, {!Spp_util.Json}. *)

type t =
  | String of string
  | Int of int
  | Float of float
  | Bool of bool
  | Json of Spp_util.Json.t
      (** a structured value, e.g. a span tree ({!Trace.tree}) on a log
          line: printed as the object it is, not as an escaped string *)

(** [to_json f] is the JSON value for one field. A float that is not
    integral is rounded to six significant digits (what ["%.6g"] keeps),
    so span trees, log lines and stats lines stay as short as timings
    need; integral floats below [1e15] are kept exact, and [nan] and the
    infinities print [null], as {!Spp_util.Json.to_string} prints them.
    A [Json] field is returned as it is. *)
val to_json : t -> Spp_util.Json.t
