(** Deterministic, seeded arrival traces for the online simulator — and
    the pacing source [spp loadgen --arrival] uses to shape open-loop
    traffic.

    A trace {e is} a release-time instance: the arrival stream the
    simulator feeds to an online packer and the input the offline APTAS
    sees are one and the same object, so competitive ratios compare like
    with like. Every trace is a pure function of [(spec, seed, n, k)]
    via {!Spp_workloads.Generators}; replaying a seed reproduces the
    arrival stream bit for bit. *)

type spec =
  | Poisson of float  (** arrival rate, tasks per unit of strip time *)
  | Burst of { burst_len : int; idle_gap : float }
      (** [burst_len] back-to-back arrivals, Exp([1/idle_gap]) quiet gaps *)

(** [parse_spec s] reads ["poisson:RATE"] or ["burst:LEN:GAP"]. *)
val parse_spec : string -> (spec, string) result

val spec_to_string : spec -> string

(** [trace ~seed spec] draws the full timed trace as a release-time
    instance, heights in quarters and releases in halves. Defaults:
    [n = 40] tasks, [k = 8] columns. *)
val trace : ?n:int -> ?k:int -> seed:int -> spec -> Spp_core.Instance.Release.t

(** One timed arrival, in strip units ([cols] of the [k] columns for
    [duration] time, available from [release]). *)
type arrival = { id : int; cols : int; duration : Spp_num.Rat.t; release : Spp_num.Rat.t }

(** [of_instance inst] converts a release-time instance into the arrival
    stream, sorted by (release, id). Widths are converted to column
    counts; a width that is not an exact multiple of [1/k] is widened to
    the next column boundary (a conservative rounding: the simulated task
    can only demand {e more} than the instance asked). Returns the
    arrivals and the number widened. *)
val of_instance : Spp_core.Instance.Release.t -> arrival list * int

(** [pacing rng spec] is a gap generator for open-loop load generation:
    each call returns the delay {e in milliseconds} before the next
    request, interpreting the spec's time unit as one second.
    [Poisson r] yields Exp(r) gaps; [Burst _] yields zero gaps inside a
    burst and exponential idle gaps between bursts. Deterministic from
    [rng]. *)
val pacing : Spp_util.Prng.t -> spec -> unit -> float
