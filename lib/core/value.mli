(** Consensus values: the multivalued domain used by every construction in
    the paper (binary flags for the lower bound, message sequences for
    Algorithm 1, value sequences for Algorithm 6). *)

type t =
  | Flag of bool
  | Num of int
  | Seq of App_msg.t list
  | Vec of t list

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit

val add_text : Buffer.t -> t -> unit
(** Append the text {!pp} prints inside a vertical box opened at column
    0: the value as it appears in {!Simulator.Trace.text}. *)

val to_tag : t -> string
(** Embed a scalar ([Flag]/[Num]) value into a message tag, as the
    ETOB-to-EC transformation requires.  Raises [Invalid_argument] on
    [Seq]/[Vec]. *)

val of_tag : string -> t option
(** Partial inverse of {!to_tag}. *)
