(** A mutable set of message ids ({!Ec_core.App_msg.id}), held as one
    growable bitset per origin: bit [sn] of origin [origin]'s row.  Each
    origin numbers its broadcasts densely from 0, so [add] and [mem]
    cost O(1) amortized and allocate only when a row grows
    (DESIGN.md §25).  It has no iteration, so no order to leak. *)

type t

val create : unit -> t
(** The empty set. *)

val mem : t -> origin:int -> sn:int -> bool
(** False for a negative [origin] or [sn]. *)

val add : t -> origin:int -> sn:int -> unit
(** Raises [Invalid_argument] for a negative [origin] or [sn]. *)
