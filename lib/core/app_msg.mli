(** Application-level messages broadcast through (E)TOB.

    A message is identified by [(origin, sn)], realizing the paper's
    assumption that broadcast messages are distinct.  [deps] is the explicit
    causal-dependency set [C(m)] of Section 5.

    One writer gives a message its text.  The Format printers ({!pp},
    {!pp_seq}) and the trace text ({!add_text}) differ only in what a
    break after a dependency's comma does: a break hint under Format, a
    newline in the trace. *)

open Simulator.Types

type id = proc_id * int

type t = {
  origin : proc_id;
  sn : int;
  tag : string;  (** opaque application content *)
  deps : id list;  (** C(m): ids of causal predecessors, sorted, unique *)
}

val make :
  origin:proc_id -> sn:int -> ?tag:string -> ?deps:id list -> unit -> t

val id : t -> id
val compare_id : id -> id -> int
val compare : t -> t -> int

val equal : t -> t -> bool
(** Equal ids. *)

val same : t -> t -> bool
(** Equal ids, tags and [deps]: the same text and wire form ({!to_wire}).
    {!equal} compares ids alone, which a replica restarted without its
    log can reuse for a message with another tag or other
    dependencies. *)

val pp_id : Format.formatter -> id -> unit
val pp : Format.formatter -> t -> unit
(** ["p<origin>#<sn>"], then ["{<-<dep>,<dep>...}"] when [deps] is not
    empty, with a break hint ([pp_print_space]) after each comma. *)

val pp_seq : Format.formatter -> t list -> unit
(** ["[m;m...]"], with no break hints of its own. *)

val add_text : Buffer.t -> t -> unit
(** Append the text {!pp} prints inside a vertical box opened at column
    0, where every break hint is a newline: the message as it appears in
    {!Simulator.Trace.text}. *)

val add_seq_text : Buffer.t -> t list -> unit
(** Append the text {!pp_seq} prints inside a vertical box opened at
    column 0. *)

module Id_set : Set.S with type elt = id
module Id_map : Map.S with type key = id

module Id_tbl : Hashtbl.S with type key = id
(** Hashed by the id's two integers. *)

val ids_of_seq : t list -> Id_set.t

val is_prefix : t list -> t list -> bool
(** [is_prefix a b]: sequence [a] is a prefix of sequence [b]. *)

(** {2 Wire codec}

    Single-line encoding used by the crash-recovery write-ahead log (see
    lib/persist and {!Recoverable}); the tag is hex-encoded, so a message
    is one line of space-separated fields and a sequence joins messages
    with ['|']. *)

val add_wire : Buffer.t -> t -> unit
(** Append the message's wire form, ["origin sn hex(tag) deps"] with
    [deps] ["-"] or comma-separated ["origin.sn"] pairs. *)

val add_seq_wire : Buffer.t -> t list -> unit
(** Append the messages' wire forms joined with ['|']. *)

val to_wire : t -> string
(** {!add_wire} into a fresh string. *)

val of_wire : string -> t option
(** [None] on any malformed field (decode never raises). *)

val seq_to_wire : t list -> string
val seq_of_wire : string -> t list option

