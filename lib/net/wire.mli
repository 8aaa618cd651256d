(** The length-prefixed binary wire protocol.

    Every message is one {e frame}: a 4-byte big-endian payload length
    followed by the payload, whose first byte is the opcode.  Lengths are
    bounded by {!max_frame}; a longer (or zero-length) prefix is a fatal
    protocol error — the peer is desynchronized and the connection must
    close.  All multi-byte integers are big-endian; strings carry a length
    prefix (u16 for identifiers, u32 for SQL text).

    Client requests: [Hello] (open a reader session), [Query] (execute a
    SELECT, materializing a server-side cursor), [Fetch] (next chunk of a
    cursor), [Close_cursor], [Bye] (orderly close).

    Server messages: [Hello_ok], [Result] (cursor id + column labels +
    total row count), [Rows] (a chunk, with a [last] marker), [Ok],
    [Error] (a {!error_code} and message), and the {e server-pushed}
    [Expired] notification — sent unsolicited when the maintainer
    publishes enough versions to expire the connection's session (§2.1's
    expiry model over the wire).  Clients must therefore tolerate an
    [Expired] frame wherever they expect a response.

    Decoding is incremental: feed whatever bytes the socket produced into
    a {!Decoder.t} and drain complete frames.  Decoders never raise on
    malformed input — corruption surfaces as [`Corrupt], never as an
    exception escaping a connection handler. *)

val max_frame : int
(** Maximum payload bytes (1 MiB).  Both sides enforce it. *)

type error_code =
  | Bad_frame  (** Malformed or unparseable payload. *)
  | No_session  (** Query/Fetch before Hello. *)
  | Session_expired  (** The documented post-expiry error: the session
                         overlapped too many maintenance transactions;
                         Hello again for a fresh one. *)
  | Query_failed  (** SQL parse/execution error; message has details. *)
  | Unknown_cursor
  | Server_busy  (** Admission control: connection or queue limit hit. *)
  | Too_many_cursors

type request =
  | Hello of string  (** Client-chosen name, informational. *)
  | Query of string  (** SELECT text (2VNL reader rewrite applies). *)
  | Fetch of { cursor : int; max_rows : int }
  | Close_cursor of int
  | Bye

type response =
  | Hello_ok of { session_id : int; session_vn : int; catalog_gen : int }
      (** [catalog_gen] is the catalog generation the session resolves
          against — a client that re-Hellos after a schema evolution sees
          it advance (and new columns with it). *)
  | Result of { cursor : int; columns : string list; total_rows : int }
  | Rows of { cursor : int; rows : Vnl_relation.Value.t list list; last : bool }
  | Ok_
  | Error_ of { code : error_code; message : string }
  | Expired of { session_vn : int; current_vn : int }

val max_str16 : int
(** Maximum bytes in a u16-prefixed string (65535): identifiers, error
    messages, and [Str] values.  Longer payloads cannot be encoded. *)

val value_size : Vnl_relation.Value.t -> int
(** Encoded bytes of one value (tag included). *)

val row_size : Vnl_relation.Value.t list -> int
(** Encoded bytes of one row in a [Rows] payload (column count included). *)

val rows_overhead : int
(** Fixed payload bytes of a [Rows] frame besides the rows themselves
    (opcode, cursor, row count, last marker).  A chunk fits iff
    [rows_overhead + sum row_size <= max_frame]. *)

val row_encodable : Vnl_relation.Value.t list -> bool
(** Whether a row can appear in some [Rows] frame at all: every [Str]
    within {!max_str16} and the row alone under the frame bound.  The
    connection layer answers [Query_failed] for rows that fail this
    instead of letting {!encode_response} raise. *)

val encode_request : request -> bytes
(** A complete frame (length prefix included).  Raises [Invalid_argument]
    if a string field exceeds its length prefix ({!max_str16} for [Hello]
    names) or the payload exceeds {!max_frame} — callers validate first
    (see {!Client.query}) rather than catching. *)

val encode_response : response -> bytes
(** Same contract as {!encode_request}: the caller must keep [Rows]
    payloads under {!max_frame} (budget with {!row_size}) and strings
    under their prefix limits. *)

(** Incremental frame decoder: an input buffer plus a payload parser for
    one side of the protocol. *)
module Decoder : sig
  type 'a t

  val request : unit -> request t
  (** Server-side decoder. *)

  val response : unit -> response t
  (** Client-side decoder. *)

  val feed : 'a t -> bytes -> int -> int -> unit
  (** [feed d buf off len] appends received bytes.  Raises
      [Invalid_argument] on an invalid range, never on content. *)

  val next : 'a t -> [ `Msg of 'a | `Await | `Corrupt of string ]
  (** Drain the next complete frame.  [`Await] = need more bytes;
      [`Corrupt] = the stream is unrecoverable (oversized/zero-length
      frame, unknown opcode, malformed payload) and the connection must
      close — a decoder stays corrupt once corrupt. *)

  val buffered : 'a t -> int
  (** Bytes held but not yet consumed (bounded by [max_frame] + header). *)
end
