(** A stable priority queue over integer priorities (a bucket queue: a
    ring of per-priority FIFO lists) used for the event queue: the engine
    keeps in it what a run schedules while it runs, beside a sorted
    schedule of the events known before the run.

    Elements with equal priorities are returned in insertion (FIFO) order,
    which makes simulation runs fully deterministic.  The pop order is
    identical to the original persistent leftist heap, retained as a test
    oracle ([test/pqueue_persistent.ml]) for differential testing, for any
    interleaving of inserts and pops, inserts below the current minimum
    included.  Insert and pop cost O(1), plus a scan over the empty
    priorities between one minimum and the next.

    Memory: O(s + p) words, where s is the largest span (maximum minus
    minimum) of the priorities queued at one time and p the peak number
    of elements.  The engine queues no event past its deadline, so
    there s is at most the deadline.  A popped element stays referenced
    by its free node until an insert reuses the node, so the queue pins
    at most (p - size) elements it no longer holds. *)

type 'a t

val create : unit -> 'a t
(** A fresh empty queue.  Queues are mutable and must not be shared across
    concurrent runs; every {!Engine.run} allocates its own. *)

val is_empty : 'a t -> bool
val size : 'a t -> int

val insert : 'a t -> prio:int -> 'a -> unit
(** [insert t ~prio v] adds [v] with priority [prio] (smaller pops first). *)

(** {2 Popping}

    The one pop path: read the head with {!min_prio} and {!min_value},
    then discard it with {!remove_min}.  Elements pop in priority order,
    FIFO among ties. *)

val min_prio : 'a t -> int
(** Priority of the next element to pop.  Zero-allocation; raises
    [Invalid_argument] on an empty queue (check {!is_empty} first). *)

val min_value : 'a t -> 'a
(** The next element to pop, without removing it.  Zero-allocation;
    raises [Invalid_argument] on an empty queue. *)

val remove_min : 'a t -> unit
(** Discard the minimum element ([min_prio]/[min_value] read it first).
    Zero-allocation; raises [Invalid_argument] on an empty queue. *)

val to_sorted_list : 'a t -> (int * 'a) list
(** All elements in pop order, without disturbing the queue: drains a copy
    through the pop path.  O(n log n); intended for tests. *)
