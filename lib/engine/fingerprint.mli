(** Canonical instance fingerprints — the cache key of the engine.

    Two instances that are equal as mathematical objects (same rect ids,
    widths, heights; same DAG edges; same release times and K) fingerprint
    identically regardless of construction order: rects and edges are
    sorted and rationals are emitted in lowest terms before hashing. The
    two variants are tagged so a precedence instance can never collide with
    a release one.

    The hash is MD5 ([Digest]): collision resistance is plenty for a cache
    key, and this is not a security boundary. The same holds for the
    request-text index in front of the engine and proxy caches, keyed by
    [Digest.string] of the raw instance text (see
    {!Engine.find_text}). *)

(** [prec inst] is a hex digest of the canonical form. *)
val prec : Spp_core.Instance.Prec.t -> string

val release : Spp_core.Instance.Release.t -> string

(** [parsed p] dispatches on the variant. *)
val parsed : Spp_core.Io.parsed -> string
