module Json = Spp_util.Json

type t =
  | String of string
  | Int of int
  | Float of float
  | Bool of bool
  | Json of Json.t

(* Integral floats stay exact; the rest keep six significant digits, so
   a span offset or a timing costs no more bytes than "%.6g" gives. *)
let to_json = function
  | String s -> Json.String s
  | Int i -> Json.Int i
  | Float f when (not (Float.is_finite f)) || (Float.is_integer f && Float.abs f < 1e15) ->
    Json.Float f
  | Float f -> Json.Float (float_of_string (Printf.sprintf "%.6g" f))
  | Bool b -> Json.Bool b
  | Json j -> j
