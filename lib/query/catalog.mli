(** Catalog (de)serialization for database persistence.

    A restartable database must be able to rediscover its tables from disk:
    the catalog records, per table, the schema (with updatable/key flags —
    the bits 2VNL semantics hang off), the heap pages in scan order, and the
    secondary-index definitions.  The format is a line-oriented text format
    chosen for debuggability; {!Database.save} stores it in reserved catalog
    pages. *)

type entry = {
  table : string;
  schema : Vnl_relation.Schema.t;
  pages : int list;  (** Heap pages in scan order. *)
  secondary : (string * string list) list;  (** Secondary indexes. *)
}

type member = {
  m_logical : string;  (** Name readers and SQL resolve. *)
  m_storage : string;  (** Physical table entry holding the data — the
                           logical name for the live generation, a frozen
                           ["name@gK"] alias for superseded ones. *)
  m_n : int;  (** nVNL [n] of the member's extension. *)
  m_base_arity : int;  (** Base attributes within the extended schema. *)
  m_added : (string * Vnl_relation.Value.t) list;
      (** Columns appended by evolution, oldest first, with defaults. *)
}

type generation = {
  g_index : int;
  g_vn : int;  (** Version number whose publication activates the
                   generation; 0 for the initial catalog. *)
  g_members : member list;  (** Registration order, oldest first. *)
}
(** One immutable catalog snapshot of the versioned catalog engine.  A
    catalog text carries generations only once a schema evolution has
    staged or committed (format version 2); a never-evolved database keeps
    writing the byte-identical version 1 format. *)

val valid_name : string -> bool
(** Whether a table/attribute/index name survives the line-oriented format:
    non-empty printable ASCII with no spaces, ['|'], or control characters
    (those are the format's delimiters). *)

val check_name : what:string -> string -> unit
(** Raise [Invalid_argument] (mentioning [what]) unless {!valid_name}. *)

val serialize : ?generations:generation list -> entry list -> string
(** Raises [Invalid_argument] when any table, attribute, or index name fails
    {!valid_name} — a catalog that could not be re-parsed is never
    written.  With [generations] the text uses format version 2 and appends
    the generation sections after the table entries. *)

exception Corrupt of string

val parse : string -> entry list
(** Raises {!Corrupt} on malformed input. *)

val parse_full : string -> entry list * generation list
(** Like {!parse} but also returning the catalog generations (empty for a
    version-1 text).  Raises {!Corrupt} on malformed input. *)

