(** The original persistent stable priority queue (leftist heap), retained
    as the reference implementation for differential tests against the
    mutable {!Simulator.Pqueue} (test_simulator's differential property).
    Same (prio, seq) key, same pop order. *)

type 'a t

val empty : 'a t

val insert : 'a t -> prio:int -> 'a -> 'a t
(** [insert t ~prio v] adds [v] with priority [prio] (smaller pops first). *)

val pop : 'a t -> ((int * 'a) * 'a t) option
(** [pop t] removes and returns the minimum-priority element, FIFO among
    ties, or [None] if the queue is empty. *)

val to_sorted_list : 'a t -> (int * 'a) list
(** All elements in pop order. O(n log n); intended for tests. *)
