(** The original persistent stable priority queue (leftist heap), retained
    as the reference implementation for differential tests against the
    mutable {!Simulator.Pqueue} (test_simulator's differential property).
    Same (prio, seq) key, same pop order. *)

type 'a t

val empty : 'a t
val is_empty : 'a t -> bool
val size : 'a t -> int

val insert : 'a t -> prio:int -> 'a -> 'a t
(** [insert t ~prio v] adds [v] with priority [prio] (smaller pops first). *)

val pop : 'a t -> ((int * 'a) * 'a t) option
(** [pop t] removes and returns the minimum-priority element, FIFO among
    ties, or [None] if the queue is empty. *)

val peek_prio : 'a t -> int option
(** Priority of the next element to pop, if any. *)

val fold : ('acc -> int -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
(** Fold over all elements in unspecified order. *)

val to_sorted_list : 'a t -> (int * 'a) list
(** All elements in pop order. O(n log n); intended for tests. *)
