(** The type of [d_i] and [promote_i]: a persistent sequence of messages
    that carries its length.  Appending shares the old sequence, so
    revisions that extend one another share their prefix physically.  The
    in-order list is built on first read and kept.  Equality and the
    prefix test compare messages by id ({!App_msg.equal}). *)

type t

val empty : t
val of_list : App_msg.t list -> t

val to_list : t -> App_msg.t list
(** O(length) on the first read, then free. *)

val length : t -> int
val last : t -> App_msg.t option

val append : t -> App_msg.t list -> t
(** [append s ms] is [s] followed by [ms], in O(|ms|). *)

val prefix : t -> int -> t
(** The first [min k (length s)] messages of [s], sharing them. *)

val after : t -> int -> App_msg.t list
(** [after s k]: the messages of [s] past its first [k], in order, in
    O(length s - k). *)

val is_prefix : t -> t -> bool
(** [is_prefix a b]: [a] is a prefix of [b]. *)

val is_text_prefix : t -> t -> bool
(** [is_text_prefix a b]: [b] starts with exactly the messages of [a],
    ids and deps ({!App_msg.same_text}).  In O(length b - length a) when
    [b] was built by {!append} to [a], sharing its messages. *)

val is_wire_prefix : t -> t -> bool
(** [is_wire_prefix a b]: [b] starts with exactly the messages of [a],
    ids, tags and deps ({!App_msg.same_wire}), at {!is_text_prefix}'s
    cost. *)

val equal : t -> t -> bool

type writer
(** The sequence writer of one rendering of a trace: per key (a
    process), the text of the sequence it last wrote. *)

val writer : unit -> writer

val write : writer -> Buffer.t -> int -> t -> unit
(** [write w b key s] appends the text of [s] in the trace, as
    {!App_msg.add_seq_text} writes {!to_list}.  When the sequence last
    written under [key] is a text prefix of [s] ({!is_text_prefix}),
    that text is reused and only the messages past it ({!after}) are
    written. *)
