(* A stable priority queue of simulation events, implemented as a mutable
   array-based binary heap keyed by (priority, insertion sequence number).

   Stability (FIFO order among equal priorities) matters for reproducibility:
   two events scheduled for the same tick are processed in the order they
   were scheduled, so a run is a pure function of the configuration.  The
   (prio, seq) key is identical to the one used by the original persistent
   implementation (kept as the test oracle test/pqueue_persistent.ml), so
   the two pop in exactly the same order — a differential test in the
   suite holds us to that.

   The heap is mutable on purpose: the engine's event loop is the hottest
   path in the system, and the persistent leftist heap allocated a node per
   insert plus O(log n) nodes per merge.  Here inserts and pops allocate
   nothing beyond the amortized array growth.  Priorities and sequence
   numbers live in unboxed int arrays.  A sift moves a hole, not an
   element: each level writes each array once, so one write per level
   goes through the write barrier ([values]).
   The engine keeps only what a run schedules while running here; the
   events known before the run wait in a sorted schedule beside the heap
   (Engine, DESIGN.md §24), so the heap stays about as large as the
   number of events in flight. *)

type 'a t = {
  mutable prios : int array;
  mutable seqs : int array;
  mutable values : 'a array;  (* meaningful in [0, size) *)
  mutable size : int;
  mutable next_seq : int;
}

let create () =
  { prios = [||]; seqs = [||]; values = [||]; size = 0; next_seq = 0 }

let is_empty t = t.size = 0
let size t = t.size

let grow t filler =
  let cap =
    if 2 * Array.length t.values < 16 then 16 else 2 * Array.length t.values
  in
  (* detlint: allow A1 amortized doubling: growth copies are off the steady-state insert path *)
  let prios = Array.make cap 0 in
  (* detlint: allow A1 amortized doubling: growth copies are off the steady-state insert path *)
  let seqs = Array.make cap 0 in
  (* detlint: allow A1 amortized doubling: growth copies are off the steady-state insert path *)
  let values = Array.make cap filler in
  Array.blit t.prios 0 prios 0 t.size;
  Array.blit t.seqs 0 seqs 0 t.size;
  Array.blit t.values 0 values 0 t.size;
  t.prios <- prios; t.seqs <- seqs; t.values <- values

(* Both sifts move a hole, not an element: each level copies one slot
   (one write to each of [prios], [seqs] and [values]) into the hole, and
   the element being placed is written once, where the hole stops.

   [hole_up] returns where an element of priority [prio] that is newer
   than every element in the heap comes to rest, starting from the hole
   at [i].  Being newest, it stays below a parent of equal priority, so
   the priority alone decides. *)
let rec hole_up (prios : int array) (seqs : int array) values (prio : int) i =
  if i = 0 then 0
  else begin
    let parent = (i - 1) / 2 in
    if prio < prios.(parent) then begin
      prios.(i) <- prios.(parent);
      seqs.(i) <- seqs.(parent);
      values.(i) <- values.(parent);
      hole_up prios seqs values prio parent
    end
    else i
  end

(* [hole_down] returns where an element keyed (prio, seq) comes to rest,
   starting from the hole at [i] in a heap of [size] slots: the smaller
   child under (prio, seq) order moves up while it precedes the element.
   Sequence numbers are unique, so the order is total. *)
let rec hole_down (prios : int array) (seqs : int array) values size
    (prio : int) (seq : int) i =
  let l = (2 * i) + 1 in
  if l >= size then i
  else begin
    let r = l + 1 in
    let c =
      if r < size
      && (prios.(r) < prios.(l) || (prios.(r) = prios.(l) && seqs.(r) < seqs.(l)))
      then r
      else l
    in
    if prios.(c) < prio || (prios.(c) = prio && seqs.(c) < seq) then begin
      prios.(i) <- prios.(c);
      seqs.(i) <- seqs.(c);
      values.(i) <- values.(c);
      hole_down prios seqs values size prio seq c
    end
    else i
  end

let insert t ~prio value =
  if t.size = Array.length t.values then grow t value;
  let seq = t.next_seq in
  let i = hole_up t.prios t.seqs t.values prio t.size in
  t.prios.(i) <- prio;
  t.seqs.(i) <- seq;
  t.values.(i) <- value;
  t.next_seq <- seq + 1;
  t.size <- t.size + 1

(* Zero-allocation min access, the one pop path: the engine's event loop
   reads the head with [min_prio]/[min_value] and discards it with
   [remove_min], so the steady-state pop builds no option or tuple. *)

let[@alloc.zero] min_prio t =
  (* detlint: allow A1 empty-queue misuse raises on the error path only; the engine checks is_empty first *)
  if t.size = 0 then invalid_arg "Pqueue.min_prio: empty queue"
  else t.prios.(0)

let[@alloc.zero] min_value t =
  (* detlint: allow A1 empty-queue misuse raises on the error path only; the engine checks is_empty first *)
  if t.size = 0 then invalid_arg "Pqueue.min_value: empty queue"
  else t.values.(0)

let[@alloc.zero] remove_min t =
  (* detlint: allow A1 empty-queue misuse raises on the error path only; the engine checks is_empty first *)
  if t.size = 0 then invalid_arg "Pqueue.remove_min: empty queue"
  else begin
    let last = t.size - 1 in
    t.size <- last;
    (* The last element fills the hole the head leaves at the root.  Its
       old slot keeps a reference to it, a live value, so while the heap
       holds an element it pins no dead one. *)
    if last > 0 then begin
      let prio = t.prios.(last) and seq = t.seqs.(last) in
      let value = t.values.(last) in
      let i = hole_down t.prios t.seqs t.values last prio seq 0 in
      t.prios.(i) <- prio;
      t.seqs.(i) <- seq;
      t.values.(i) <- value
    end
  end

(* Non-destructive: drains a structural copy. *)
let to_sorted_list t =
  let copy =
    { prios = Array.copy t.prios;
      seqs = Array.copy t.seqs;
      values = Array.copy t.values;
      size = t.size;
      next_seq = t.next_seq }
  in
  let rec drain acc =
    if is_empty copy then List.rev acc
    else begin
      let pv = (min_prio copy, min_value copy) in
      remove_min copy;
      drain (pv :: acc)
    end
  in
  drain []
