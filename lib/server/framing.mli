(** Socket addresses and newline framing over raw file descriptors.

    The byte layer under {!Protocol}: a server listens on (and a client
    connects to) a Unix-domain or TCP address, and messages are framed as
    lines — one message per ['\n']-terminated line. The reader is buffered,
    tolerates messages split across arbitrary [read] boundaries, strips an
    optional trailing ['\r'] (so hand-typed [nc]/telnet sessions and
    Windows clients parse cleanly), and enforces a maximum line length so
    a malicious or broken peer cannot make the server buffer unbounded
    garbage. The limit applies to the logical line — after the CR strip —
    so CRLF peers get the same effective capacity as LF ones. Reads and connects can carry deadlines (monotonic
    {!Spp_util.Clock}, immune to wall-clock steps) so a stalled peer is
    cut loose instead of pinning a thread.

    Fault points (see {!Spp_util.Fault}): [framing.read] and
    [framing.write] fire as [Unix.Unix_error (EIO, "fault", point)], i.e.
    exactly the shape of a real broken socket. *)

type address =
  | Unix_sock of string  (** Unix-domain socket path *)
  | Tcp of string * int  (** host (name or dotted quad), port *)

val address_to_string : address -> string

(** [listen addr] binds and listens, with a backlog of 64. For
    [Unix_sock] a pre-existing socket file at the path is unlinked first;
    for [Tcp] the socket is bound with [SO_REUSEADDR].
    @raise Unix.Unix_error on failure. *)
val listen : address -> Unix.file_descr

(** Raised when a deadline passes: by {!connect} with [timeout_ms], and by
    {!read_line} with [idle_timeout_ms] / [read_timeout_ms]. *)
exception Timeout

(** [connect addr] connects a fresh stream socket. With [timeout_ms] the
    connect is non-blocking under the hood and raises {!Timeout} if the
    peer does not accept in time.
    @raise Unix.Unix_error on failure (e.g. nobody listening). *)
val connect : ?timeout_ms:float -> address -> Unix.file_descr

type reader

(** Default {!reader} line limit (8 MiB). *)
val default_max_line : int

(** Raised by {!read_line} when a line exceeds the reader's limit. *)
exception Line_too_long

(** [reader fd] wraps [fd] for buffered line reading.
    [max_line_bytes] defaults to 8 MiB. *)
val reader : ?max_line_bytes:int -> Unix.file_descr -> reader

(** [read_line r] is the next line without its terminator ([None] at EOF;
    a final unterminated line is returned before EOF is reported). Retries
    [EINTR]; other I/O errors propagate as [Unix.Unix_error].

    Deadlines (both optional, in milliseconds, measured on the monotonic
    {!Spp_util.Clock}):
    - [idle_timeout_ms] bounds the wait for the next line to {e begin},
      anchored at this call. Raises {!Timeout} if no byte of a new line
      arrives in time.
    - [read_timeout_ms] bounds how long a line may take to {e complete},
      anchored at the arrival of its first byte (which may precede this
      call when a partial line is already buffered). This is the
      slow-loris guard: trickling one byte per idle-timeout still trips it.

    Lines already buffered from previous reads are returned without
    consulting either deadline. *)
val read_line :
  ?idle_timeout_ms:float -> ?read_timeout_ms:float -> reader -> string option

(** [write_line fd s] writes [s] followed by ['\n'], looping until all
    bytes are written. [s] must not contain ['\n'] (callers encode with
    {!Protocol}/{!Spp_util.Json}, which escape it). *)
val write_line : Unix.file_descr -> string -> unit
