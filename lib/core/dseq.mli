(** The type of [d_i] and [promote_i]: a persistent, immutable sequence
    of messages that carries its length.  Appending shares the old
    sequence, so revisions that extend one another share their prefix
    physically.  Equality and the prefix test compare messages by id
    ({!App_msg.equal}); {!delta} compares whole messages. *)

type t

val empty : t
val of_list : App_msg.t list -> t

val to_list : t -> App_msg.t list
(** A fresh list, in O(length), on every call. *)

val length : t -> int
val last : t -> App_msg.t option

val append : t -> App_msg.t list -> t
(** [append s ms] is [s] followed by [ms], in O(|ms|). *)

val prefix : t -> int -> t
(** The first [min k (length s)] messages of [s], sharing them. *)

val is_prefix : t -> t -> bool
(** [is_prefix a b]: [a] is a prefix of [b]. *)

val delta : t -> t -> int * App_msg.t list
(** [delta prev s]: what the revision [s] adds to [prev].  When [prev]
    is not empty and [s] starts with exactly its messages, ids, tags and
    deps ({!App_msg.same}), [(length prev, the messages of s past it)];
    otherwise [(0, to_list s)].  In O(length s - length prev) when [s]
    was built by {!append} to [prev], sharing its messages.  Every
    reader of revisions as deltas (the trace text, the checkers, the
    write-ahead log, the replica fold) keeps what this keeps. *)

val equal : t -> t -> bool

type writer
(** The sequence writer of one rendering of a trace: per key (a
    process), the text of the sequence it last wrote. *)

val writer : unit -> writer

val write : writer -> Buffer.t -> int -> t -> unit
(** [write w b key s] appends the text of [s] in the trace, as
    {!App_msg.add_seq_text} writes {!to_list}.  When [s] keeps the
    sequence last written under [key] ({!delta}), that text is reused
    and only the messages past it are written. *)
