(** SVG rendering of placements and schedules.

    Produces standalone SVG documents (no external assets) with one [rect]
    element per rectangle, a strip frame, and id labels — the publication-
    quality counterpart of {!Render}'s terminal output. Colours cycle
    through a fixed qualitative palette keyed by rect id, so the same task
    keeps its colour across figures. *)

(** [render ?width_px ?label placement] is an SVG document string. The
    strip (width 1) maps to [width_px] pixels (default 480); height scales
    uniformly. [label] (default true) draws each rect's id at its centre.
    The empty placement yields a valid empty-canvas document. *)
val render : ?width_px:int -> ?label:bool -> Placement.t -> string

(** [save path placement] writes [render placement] to [path]. *)
val save : string -> Placement.t -> unit
