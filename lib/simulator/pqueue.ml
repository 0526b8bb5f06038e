(* A stable priority queue of simulation events over integer priorities:
   a bucket queue (a calendar queue with one tick per bucket, Brown, CACM
   1988), in which each priority present has a FIFO list of its elements.

   Stability (FIFO order among equal priorities) matters for
   reproducibility: two events scheduled for the same tick are processed
   in the order they were scheduled, so a run is a pure function of the
   configuration.  Appending each element to its priority's list as it is
   inserted, and popping the head of the smallest priority's list, pops in
   (prio, insertion) order, the key of the original persistent
   implementation (kept as the test oracle test/pqueue_persistent.ml), for
   any interleaving of inserts and pops, an insert below the current
   minimum included.  No two elements are ever compared.

   Layout.  The buckets are a ring of two int arrays, [heads] and [tails],
   whose length is a power of two: priority p's list starts at node
   [heads.(p land mask)] and ends at [tails.(p land mask)], -1 for an
   empty list.  The queued priorities span [lo, hi], and the ring is
   longer than that span, so no two of them share a bucket; it doubles
   when an insert would widen the span to its length, and regrowing
   moves whole lists, which keeps each one's order.  The nodes are a pool
   of two arrays, [values] and [next] (the node after it in its list or
   in the free list), so an insert writes [values] once, the only write
   through the write barrier, and allocates nothing beyond the amortized
   growth of the pool and the ring.  The engine keeps only what a run
   schedules while running here; the events known before the run wait
   in a sorted schedule beside the queue (Engine, DESIGN.md §24 and
   §26). *)

type 'a t = {
  mutable heads : int array;  (* ring: first node of each priority's list *)
  mutable tails : int array;  (* ring: last node, meaningful while heads >= 0 *)
  mutable lo : int;  (* smallest queued priority, while size > 0 *)
  mutable hi : int;  (* largest queued priority, while size > 0 *)
  mutable next : int array;  (* pool: next node in a list, -1 at its end *)
  mutable values : 'a array;  (* pool: a node's element *)
  mutable free : int;  (* first free node, -1 when the pool is full *)
  mutable size : int;
}

let create () =
  { heads = [||]; tails = [||]; lo = 0; hi = 0; next = [||]; values = [||];
    free = -1; size = 0 }

let is_empty t = t.size = 0
let size t = t.size

(* Doubles the pool (16 nodes at first) and threads the new nodes onto
   the free list, which is empty when this is called. *)
let grow_pool t filler =
  let used = Array.length t.values in
  let cap = if 2 * used < 16 then 16 else 2 * used in
  (* detlint: allow A1 amortized doubling: growth copies are off the steady-state insert path *)
  let next = Array.make cap (-1) in
  (* detlint: allow A1 amortized doubling: growth copies are off the steady-state insert path *)
  let values = Array.make cap filler in
  Array.blit t.next 0 next 0 used;
  Array.blit t.values 0 values 0 used;
  for node = used to cap - 2 do
    next.(node) <- node + 1
  done;
  t.next <- next;
  t.values <- values;
  t.free <- used

let rec ring_length cap span = if cap > span then cap else ring_length (2 * cap) span

(* Doubles the ring (one bucket at first) until it is longer than the
   span [lo, hi] the queue is about to hold, and moves each queued
   priority's list, whole, into its bucket in the new ring. *)
let grow_ring t ~lo ~hi =
  let old_heads = t.heads and old_tails = t.tails in
  let old_mask = Array.length old_heads - 1 in
  let cap = ring_length (Int.max 1 (Array.length old_heads)) (hi - lo) in
  (* detlint: allow A1 amortized doubling: growth copies are off the steady-state insert path *)
  let heads = Array.make cap (-1) in
  (* detlint: allow A1 amortized doubling: growth copies are off the steady-state insert path *)
  let tails = Array.make cap (-1) in
  let mask = cap - 1 in
  if t.size > 0 then
    for p = t.lo to t.hi do
      heads.(p land mask) <- old_heads.(p land old_mask);
      tails.(p land mask) <- old_tails.(p land old_mask)
    done;
  t.heads <- heads;
  t.tails <- tails

let insert t ~prio value =
  if t.free < 0 then grow_pool t value;
  let next = t.next in
  let node = t.free in
  t.free <- next.(node);
  next.(node) <- -1;
  t.values.(node) <- value;
  if t.size = 0 then begin
    t.lo <- prio;
    t.hi <- prio
  end;
  let lo = Int.min t.lo prio and hi = Int.max t.hi prio in
  if hi - lo >= Array.length t.heads then grow_ring t ~lo ~hi;
  t.lo <- lo;
  t.hi <- hi;
  let heads = t.heads and tails = t.tails in
  let i = prio land (Array.length heads - 1) in
  if heads.(i) < 0 then heads.(i) <- node else next.(tails.(i)) <- node;
  tails.(i) <- node;
  t.size <- t.size + 1

(* Zero-allocation min access, the one pop path: the engine's event loop
   reads the head with [min_prio]/[min_value] and discards it with
   [remove_min], so the steady-state pop builds no option or tuple. *)

let[@alloc.zero] min_prio t =
  (* detlint: allow A1 empty-queue misuse raises on the error path only; the engine checks is_empty first *)
  if t.size = 0 then invalid_arg "Pqueue.min_prio: empty queue"
  else t.lo

let[@alloc.zero] min_value t =
  (* detlint: allow A1 empty-queue misuse raises on the error path only; the engine checks is_empty first *)
  if t.size = 0 then invalid_arg "Pqueue.min_value: empty queue"
  else t.values.(t.heads.(t.lo land (Array.length t.heads - 1)))

(* The first priority from [p] on whose list is not empty.  Called only
   while the queue holds an element at or above [p], so it stops by [hi]. *)
let rec first_queued (heads : int array) mask p =
  if heads.(p land mask) >= 0 then p else first_queued heads mask (p + 1)

(* The freed node goes to the head of the free list, and its [values]
   slot keeps the element until an insert reuses the node: the pool pins
   at most (peak size - size) elements the queue no longer holds. *)
let[@alloc.zero] remove_min t =
  (* detlint: allow A1 empty-queue misuse raises on the error path only; the engine checks is_empty first *)
  if t.size = 0 then invalid_arg "Pqueue.remove_min: empty queue"
  else begin
    let heads = t.heads and next = t.next in
    let mask = Array.length heads - 1 in
    let i = t.lo land mask in
    let node = heads.(i) in
    let after = next.(node) in
    heads.(i) <- after;
    next.(node) <- t.free;
    t.free <- node;
    t.size <- t.size - 1;
    if after < 0 && t.size > 0 then t.lo <- first_queued heads mask (t.lo + 1)
  end

(* Non-destructive: drains a structural copy. *)
let to_sorted_list t =
  let copy =
    { t with
      heads = Array.copy t.heads;
      tails = Array.copy t.tails;
      next = Array.copy t.next;
      values = Array.copy t.values }
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
