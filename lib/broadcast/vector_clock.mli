(** Vector clocks: a mechanically checkable witness of the causal
    (happens-before) order on messages. *)

open Simulator.Types

type t

val zero : n:int -> t
val size : t -> int
val get : t -> proc_id -> int

val tick : t -> proc_id -> t
(** Increment the local component; pure. *)

val merge : t -> t -> t
(** Componentwise maximum (least upper bound). *)

val leq : t -> t -> bool
(** The causal partial order: [leq a b] iff [a.(i) <= b.(i)] for all [i]. *)

val equal : t -> t -> bool
val lt : t -> t -> bool
val concurrent : t -> t -> bool
(** Neither [leq a b] nor [leq b a]. *)

val sum : t -> int
val to_list : t -> int list
val of_list : int list -> t
val pp : Format.formatter -> t -> unit
