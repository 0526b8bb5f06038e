(* The original persistent stable priority queue: a leftist heap keyed by
   (priority, insertion sequence number).

   Superseded as the engine's event queue by the mutable binary heap in
   [Pqueue], but retained as the reference implementation: the differential
   test in the suite checks that both structures pop in exactly the same
   (prio, seq) order on random interleavings, which is what makes the heap
   swap trace-preserving. *)

type 'a heap =
  | Empty
  | Node of { rank : int; prio : int; seq : int; value : 'a; left : 'a heap; right : 'a heap }

type 'a t = { heap : 'a heap; next_seq : int }

let empty = { heap = Empty; next_seq = 0 }

let rank = function Empty -> 0 | Node { rank; _ } -> rank

let make_node prio seq value left right =
  if rank left >= rank right then
    Node { rank = rank right + 1; prio; seq; value; left; right }
  else Node { rank = rank left + 1; prio; seq; value; left = right; right = left }

let leq p1 s1 p2 s2 = p1 < p2 || (p1 = p2 && s1 <= s2)

let rec merge h1 h2 =
  match h1, h2 with
  | Empty, h | h, Empty -> h
  | Node n1, Node n2 ->
    if leq n1.prio n1.seq n2.prio n2.seq then
      make_node n1.prio n1.seq n1.value n1.left (merge n1.right h2)
    else make_node n2.prio n2.seq n2.value n2.left (merge h1 n2.right)

let insert t ~prio value =
  let node = make_node prio t.next_seq value Empty Empty in
  { heap = merge t.heap node; next_seq = t.next_seq + 1 }

let pop t =
  match t.heap with
  | Empty -> None
  | Node { prio; value; left; right; _ } ->
    Some ((prio, value), { t with heap = merge left right })

let to_sorted_list t =
  let rec drain acc t =
    match pop t with
    | None -> List.rev acc
    | Some (pv, t') -> drain (pv :: acc) t'
  in
  drain [] t
