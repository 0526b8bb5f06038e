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
   numbers live in unboxed int arrays. *)

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

(* Lexicographic (prio, seq) order; seq values are unique so this is total. *)
let leq t i j =
  t.prios.(i) < t.prios.(j)
  || (t.prios.(i) = t.prios.(j) && t.seqs.(i) <= t.seqs.(j))

let swap t i j =
  let p = t.prios.(i) in t.prios.(i) <- t.prios.(j); t.prios.(j) <- p;
  let s = t.seqs.(i) in t.seqs.(i) <- t.seqs.(j); t.seqs.(j) <- s;
  let v = t.values.(i) in t.values.(i) <- t.values.(j); t.values.(j) <- v

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

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if leq t i parent then begin swap t i parent; sift_up t parent end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = if l < t.size && leq t l i then l else i in
  let smallest = if r < t.size && leq t r smallest then r else smallest in
  if smallest <> i then begin swap t i smallest; sift_down t smallest end

let insert t ~prio value =
  if t.size = Array.length t.values then grow t value;
  let i = t.size in
  t.prios.(i) <- prio;
  t.seqs.(i) <- t.next_seq;
  t.values.(i) <- value;
  t.next_seq <- t.next_seq + 1;
  t.size <- t.size + 1;
  sift_up t i

(* Zero-allocation min access: the engine's event loop reads the head
   with [min_prio]/[min_value] and discards it with [remove_min], so the
   steady-state pop path builds no option or tuple.  [pop] below remains
   the convenient interface for non-hot callers. *)

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
    swap t 0 last;
    t.size <- last;
    (* Drop the popped value's reference so the heap never pins dead
       events; slot [last] still holds a live value when size > 0. *)
    if last > 0 then t.values.(last) <- t.values.(0);
    sift_down t 0
  end

let pop t =
  if t.size = 0 then None
  else begin
    let prio = t.prios.(0) and value = t.values.(0) in
    remove_min t;
    (* detlint: allow A1 legacy interface allocates its option-of-pair result; the engine loop uses min_prio/min_value/remove_min instead *)
    Some (prio, value)
  end

let peek_prio t =
  (* detlint: allow A1 option result; hot callers read min_prio after is_empty *)
  if t.size = 0 then None else Some t.prios.(0)

let fold f acc t =
  let acc = ref acc in
  for i = 0 to t.size - 1 do
    acc := f !acc t.prios.(i) t.values.(i)
  done;
  !acc

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
    match pop copy with
    | None -> List.rev acc
    | Some pv -> drain (pv :: acc)
  in
  drain []
