(** Per-request trace span trees.

    A trace is one root span plus nested children, each stamped with a
    start offset and duration on the monotonic {!Spp_util.Clock}. The
    serving stack opens a trace at admission (honouring a client-supplied
    id), threads it through the queue, the worker pool, the engine, and
    each racing algorithm, then renders it — as an ASCII tree for
    [spp trace], or as a {!Spp_util.Json} value for the wire and the
    slow-request log.

    This module owns the span-tree shape: {!tree} writes it and
    {!import} reads it back, so a tree crosses a hop (server to proxy,
    proxy to client) as a value and no other code walks its keys.

    All mutation is under the trace's mutex, so racing domains may open
    and finish sibling spans concurrently. *)

type t
type span

(** A fresh 16-hex-digit id (process-wide PRNG, seeded per process). *)
val gen_id : unit -> string

(** [create ~name ()] starts a trace whose root span [name] begins now.
    [id] overrides the generated trace id (client-supplied propagation);
    an empty [id] is replaced by a generated one. *)
val create : ?id:string -> name:string -> unit -> t

val id : t -> string
val root : t -> span

(** [span t ~parent name] opens a child span starting now. *)
val span : t -> parent:span -> string -> span

(** [finish t s] stamps the duration (first call wins) and appends
    [fields]. *)
val finish : ?fields:(string * Field.t) list -> t -> span -> unit

(** [with_span t ~parent name f] runs [f] inside a fresh span, finishing
    it on the way out ([outcome=raised] is recorded when [f] escapes with
    an exception, which is re-raised). *)
val with_span : t -> parent:span -> string -> (span -> 'a) -> 'a

val add_fields : t -> span -> (string * Field.t) list -> unit

(** Start offset of [s] relative to the trace epoch, in ms. *)
val start_ms : span -> float

(** A span tree recorded by {e another} process, to be adopted into this
    trace — what {!import} reads from the [root] of a {!tree}.
    [i_children] are chronological. *)
type imported = {
  i_name : string;
  i_start_ms : float;  (** relative to the remote trace's epoch *)
  i_dur_ms : float option;
  i_fields : (string * Field.t) list;
  i_children : imported list;
}

(** [graft t ~parent ~offset_ms imp] attaches [imp] (durations and
    fields preserved) under [parent], rebasing every remote start offset
    by [offset_ms] — pass {!start_ms} of the span that covers the remote
    call. This is how the proxy nests a backend's reply-embedded span
    tree under its own [upstream] span. *)
val graft : t -> parent:span -> offset_ms:float -> imported -> unit

(** [close t] finishes the root span. *)
val close : ?fields:(string * Field.t) list -> t -> unit

(** Root duration if closed, else elapsed-so-far. *)
val total_ms : t -> float

(** The span tree as one JSON value:
    [{"trace_id":...,"root":{"name":...,"start_ms":...,"ms":...,
    "fields":{...},"spans":[...]}}]. Children are chronological; an open
    span has no ["ms"], a span without fields or children no ["fields"]
    or ["spans"]. Offsets, durations and float fields keep six
    significant digits ({!Field.to_json}). *)
val tree : t -> Spp_util.Json.t

(** [to_json t] is [Json.to_string (tree t)]: one line. *)
val to_json : t -> string

(** [import j] reads the [root] of a {!tree} value — typically one that
    came over the wire — ready for {!graft}. Malformed nodes (no string
    ["name"]) are dropped with their subtrees, and field values that are
    not strings, numbers or booleans are dropped: a trace is best effort
    and must never fail a request. [None] when [j] has no usable root. *)
val import : Spp_util.Json.t -> imported option

(** Human-readable tree with durations, offsets, and span fields. *)
val render : t -> string
