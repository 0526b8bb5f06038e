(** A stable priority queue (mutable array-based binary heap) used for the
    event queue.

    Elements with equal priorities are returned in insertion (FIFO) order,
    which makes simulation runs fully deterministic.  The pop order is
    identical to the original persistent leftist heap, retained as a test
    oracle ([test/pqueue_persistent.ml]) for differential testing. *)

type 'a t

val create : unit -> 'a t
(** A fresh empty queue.  Queues are mutable and must not be shared across
    concurrent runs; every {!Engine.run} allocates its own. *)

val is_empty : 'a t -> bool
val size : 'a t -> int

val insert : 'a t -> prio:int -> 'a -> unit
(** [insert t ~prio v] adds [v] with priority [prio] (smaller pops first). *)

val pop : 'a t -> (int * 'a) option
(** [pop t] removes and returns the minimum-priority element, FIFO among
    ties, or [None] if the queue is empty.  Allocates the result pair;
    the engine's event loop uses the zero-allocation triple below. *)

val min_prio : 'a t -> int
(** Priority of the next element to pop.  Zero-allocation; raises
    [Invalid_argument] on an empty queue (check {!is_empty} first). *)

val min_value : 'a t -> 'a
(** The next element to pop, without removing it.  Zero-allocation;
    raises [Invalid_argument] on an empty queue. *)

val remove_min : 'a t -> unit
(** Discard the minimum element ([min_prio]/[min_value] read it first).
    Zero-allocation; raises [Invalid_argument] on an empty queue. *)

val peek_prio : 'a t -> int option
(** Priority of the next element to pop, if any. *)

val fold : ('acc -> int -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
(** Fold over all elements in unspecified order. *)

val to_sorted_list : 'a t -> (int * 'a) list
(** All elements in pop order, without disturbing the queue.  O(n log n);
    intended for tests. *)
