(* The causality graph CG_i of Algorithm 5.

   Nodes are application messages; an edge (m1, m2) records that m2 causally
   depends on m1 (m1 in C(m2)).  The three functions of the paper:

   - UpdateCG(m, C(m))  -> [add]
   - UnionCG(CG_j)      -> [union]
   - UpdatePromote()    -> [linearize], and incrementally [promote_fresh]

   [linearize] must return a sequence s such that (i) the given prefix is a
   prefix of s, (ii) s contains every message of the graph exactly once, and
   (iii) for every edge (m1, m2), m1 appears before m2.  Any topological
   extension qualifies; for determinism we extend with Kahn's algorithm using
   a configurable tie-break (default: smallest (origin, sn) first).  The
   ablation benchmark checks that correctness is tie-break-independent.

   The graph is persistent (an [update(CG_i)] payload is a snapshot that
   later additions must not change) and maintained incrementally, so that
   each operation costs what is new rather than the whole history:

   - the dependency-closed part ([ready]) is kept up to date on every
     [add]: a node whose dependencies are all ready becomes ready, and a
     node waiting on a missing or blocked dependency is filed under it and
     re-examined when that dependency becomes ready;
   - nodes are counted per origin, so [union] skips every origin whose
     messages the left graph already holds as a gap-free 0..k run — which
     is every origin, in runs where graphs travel whole — and only visits
     the right graph's messages beyond k;
   - the ready nodes are logged in the order they became ready, so
     UpdatePromote can take just the nodes that became ready since its last
     call ([promote_fresh]) and order them with a heap, instead of
     re-linearizing the whole graph.

   A message's identity determines its content (App_msg), so the edges of a
   node are its [deps]: a node present in both arguments of [union] has the
   same edges in each.  The original whole-history implementation is kept
   as the test oracle of the differential properties in test_core. *)

module Id_map = App_msg.Id_map
module Id_set = App_msg.Id_set
module Int_map = Map.Make (Int)

(* One origin's nodes: how many, and the highest sequence number.  Since
   sequence numbers are non-negative, [count = top + 1] means the graph
   holds exactly that origin's messages 0..top. *)
type span = { count : int; top : int }

type t = {
  nodes : App_msg.t Id_map.t;
  size : int;
  per_origin : span Int_map.t;
  blocked : App_msg.t Id_map.t;
  (* Present nodes outside the dependency-closed part: some dependency is
     missing from the graph, or is itself blocked. *)
  waiting : App_msg.t list Id_map.t;
  (* For a dependency id, the blocked nodes that wait for it: each blocked
     node is filed under exactly one of its unready dependencies. *)
  ready_count : int;
  ready_log : App_msg.t list;  (* ready nodes, most recently ready first *)
}

let empty =
  { nodes = Id_map.empty; size = 0; per_origin = Int_map.empty;
    blocked = Id_map.empty; waiting = Id_map.empty; ready_count = 0;
    ready_log = [] }

let size g = g.size
let mem g id = Id_map.mem id g.nodes
let messages g = List.map snd (Id_map.bindings g.nodes)

let is_ready g id = mem g id && not (Id_map.mem id g.blocked)

let first_unready g m = List.find_opt (fun d -> not (is_ready g d)) m.App_msg.deps

let file_under d m waiting =
  Id_map.update d (function None -> Some [ m ] | Some ms -> Some (m :: ms)) waiting

(* [m] was just added with every dependency ready: mark it ready, then
   re-examine the nodes waiting for it, transitively.  A worklist rather
   than recursion: a healed partition can release a long chain at once. *)
let release g m =
  let rec go g = function
    | [] -> g
    | m :: rest ->
      let id = App_msg.id m in
      let g =
        { g with ready_count = g.ready_count + 1; ready_log = m :: g.ready_log }
      in
      (match Id_map.find_opt id g.waiting with
       | None -> go g rest
       | Some ws ->
         let g = { g with waiting = Id_map.remove id g.waiting } in
         let g, rest =
           List.fold_left
             (fun (g, rest) w ->
                match first_unready g w with
                | Some d -> ({ g with waiting = file_under d w g.waiting }, rest)
                | None ->
                  ({ g with blocked = Id_map.remove (App_msg.id w) g.blocked }, w :: rest))
             (g, rest) ws
         in
         go g rest)
  in
  go g [ m ]

(* UpdateCG(m, C(m)): add the node m and the edges {(m', m) | m' in C(m)}. *)
let add g m =
  let id = App_msg.id m in
  if mem g id then g
  else
    let span =
      match Int_map.find_opt m.App_msg.origin g.per_origin with
      | None -> { count = 1; top = m.App_msg.sn }
      | Some s -> { count = s.count + 1; top = max s.top m.App_msg.sn }
    in
    let g =
      { g with
        nodes = Id_map.add id m g.nodes;
        size = g.size + 1;
        per_origin = Int_map.add m.App_msg.origin span g.per_origin }
    in
    match first_unready g m with
    | Some d ->
      { g with blocked = Id_map.add id m g.blocked; waiting = file_under d m g.waiting }
    | None -> release g m

(* UnionCG: union of nodes and of edge sets.  For each origin, only [b]'s
   messages above [a]'s gap-free run are visited, by sequence number when
   [b]'s run is gap-free too.  The result extends [a]'s history (see
   [promote_fresh]) unless [a] is empty. *)
let union a b =
  if a.size = 0 then b
  else
    Int_map.fold
      (fun origin (sb : span) acc ->
         let rec take acc s =
           match s () with
           | Seq.Cons (((o, _), m), rest) when o = origin -> take (add acc m) rest
           | _ -> acc
         in
         let rec take_sns acc sn =
           if sn > sb.top then acc
           else take_sns (add acc (Id_map.find (origin, sn) b.nodes)) (sn + 1)
         in
         match Int_map.find_opt origin acc.per_origin with
         | Some sa when sa.count = sa.top + 1 ->
           if sb.top <= sa.top then acc
           else if sb.count = sb.top + 1 then take_sns acc (sa.top + 1)
           else take acc (Id_map.to_seq_from (origin, sa.top + 1) b.nodes)
         | _ -> take acc (Id_map.to_seq_from (origin, min_int) b.nodes))
      b.per_origin a

let edges g =
  Id_map.fold
    (fun mid m acc -> List.fold_left (fun acc p -> (p, mid) :: acc) acc m.App_msg.deps)
    g.nodes []

(* The dependency-closed restriction: the largest subgraph in which every
   node's recorded predecessors are all present.  A node with a dangling
   dependency — its causal past has not fully arrived — is excluded,
   together with everything that depends on it.  Algorithm 5 promotes only
   this part of the graph (the "dependency wait"): promoting a message
   before its dependency is known would lock it into the prefix ahead of
   the dependency and permanently violate causal order once it arrives.
   Maintained by [add], so this only removes the blocked nodes. *)
let ready g =
  if Id_map.is_empty g.blocked then g
  else
    let nodes = Id_map.fold (fun id _ nodes -> Id_map.remove id nodes) g.blocked g.nodes in
    let per_origin =
      Id_map.fold
        (fun (origin, sn) _ per_origin ->
           match Int_map.find_opt origin per_origin with
           | Some s -> Int_map.add origin { count = s.count + 1; top = max s.top sn } per_origin
           | None -> Int_map.add origin { count = 1; top = sn } per_origin)
        nodes Int_map.empty
    in
    { g with nodes; size = g.ready_count; per_origin; blocked = Id_map.empty;
             waiting = Id_map.empty }

let ready_count g = g.ready_count

let default_tie_break = App_msg.compare

exception Cycle of App_msg.id list

(* Kahn's algorithm over [batch], counting only edges inside it: the next
   message is always the least, by [tie_break] and then by id, of those
   whose predecessors in the batch are all placed — exactly the choice of
   a stable sort of the id-ordered candidates by [tie_break]. *)
let order ~tie_break batch =
  match batch with
  | [] | [ _ ] -> batch
  | _ ->
    let msgs = Array.of_list batch in
    let k = Array.length msgs in
    let index = ref Id_map.empty in
    Array.iteri (fun i m -> index := Id_map.add (App_msg.id m) i !index) msgs;
    let indeg = Array.make k 0 and succs = Array.make k [] in
    Array.iteri
      (fun i m ->
         List.iter
           (fun d ->
              match Id_map.find_opt d !index with
              | Some j ->
                indeg.(i) <- indeg.(i) + 1;
                succs.(j) <- i :: succs.(j)
              | None -> ())
           m.App_msg.deps)
      msgs;
    let before i j =
      let c = tie_break msgs.(i) msgs.(j) in
      if c <> 0 then c < 0 else App_msg.compare msgs.(i) msgs.(j) < 0
    in
    (* A binary min-heap of batch indices. *)
    let heap = Array.make k 0 and len = ref 0 in
    let swap a b =
      let x = heap.(a) in
      heap.(a) <- heap.(b);
      heap.(b) <- x
    in
    let push i =
      heap.(!len) <- i;
      incr len;
      let rec up c =
        let p = (c - 1) / 2 in
        if c > 0 && before heap.(c) heap.(p) then (swap c p; up p)
      in
      up (!len - 1)
    in
    let pop () =
      let top = heap.(0) in
      decr len;
      heap.(0) <- heap.(!len);
      let rec down p =
        let l = (2 * p) + 1 in
        let c = if l + 1 < !len && before heap.(l + 1) heap.(l) then l + 1 else l in
        if c < !len && before heap.(c) heap.(p) then (swap c p; down c)
      in
      down 0;
      top
    in
    Array.iteri (fun i d -> if d = 0 then push i) indeg;
    let rec drain acc placed =
      if !len = 0 then (List.rev acc, placed)
      else
        let i = pop () in
        List.iter
          (fun j ->
             indeg.(j) <- indeg.(j) - 1;
             if indeg.(j) = 0 then push j)
          succs.(i);
        drain (msgs.(i) :: acc) (placed + 1)
    in
    let seq, placed = drain [] 0 in
    if placed < k then begin
      (* The unplaced messages, and what blocks each of them. *)
      let unplaced j = indeg.(j) > 0 in
      let blocking m =
        List.filter
          (fun d -> match Id_map.find_opt d !index with Some j -> unplaced j | None -> false)
          m.App_msg.deps
      in
      raise (Cycle (List.concat_map blocking (List.filteri (fun i _ -> unplaced i) batch)))
    end;
    seq

(* UpdatePromote: extend [prefix] to a topological linearization of the full
   graph.  Messages already in [prefix] keep their positions; remaining
   messages are appended in an order respecting every (present-node) edge.
   Raises [Cycle] if the dependency relation restricted to present nodes is
   cyclic, which cannot happen for genuine causal dependencies. *)
let linearize ?(tie_break = default_tie_break) g ~prefix =
  let placed = App_msg.ids_of_seq prefix in
  let remaining =
    Id_map.fold
      (fun id m acc -> if Id_set.mem id placed then acc else m :: acc)
      g.nodes []
  in
  prefix @ order ~tie_break (List.rev remaining)

(* The incremental UpdatePromote.  The ready nodes beyond the first [since]
   of [g]'s history are the ones that became ready since a promotion that
   placed every ready node of an earlier version of [g]; appending them in
   [order] is what [linearize (ready g) ~prefix] appends when [prefix]
   holds every earlier ready node — their predecessors are all ready, so
   each is either placed already or in the batch. *)
let promote_fresh ?(tie_break = default_tie_break) g ~since ~placed =
  let rec take n acc = function
    | m :: rest when n > 0 ->
      take (n - 1) (if placed (App_msg.id m) then acc else m :: acc) rest
    | _ -> acc
  in
  order ~tie_break (take (g.ready_count - since) [] g.ready_log)

(* A linearization is valid for g and prefix iff it extends the prefix,
   enumerates the graph's messages exactly once and respects all edges among
   present nodes.  Used by tests and by the tie-break ablation. *)
let is_valid_linearization g ~prefix seq =
  let indexed = List.mapi (fun i m -> (App_msg.id m, i)) seq in
  let index_of id = List.assoc_opt id indexed in
  let extends = App_msg.is_prefix prefix seq in
  let all_present =
    size g = List.length seq
    && List.for_all (fun m -> mem g (App_msg.id m)) seq
  in
  let no_dup =
    List.length (List.sort_uniq App_msg.compare_id (List.map App_msg.id seq))
    = List.length seq
  in
  let edges_ok =
    List.for_all
      (fun (p, m) ->
         match index_of p, index_of m with
         | Some ip, Some im -> ip < im
         | None, _ -> true (* predecessor unknown to the graph *)
         | Some _, None -> false)
      (edges g)
  in
  extends && all_present && no_dup && edges_ok

let pp ppf g =
  let pp_node ppf (id, _) = App_msg.pp_id ppf id in
  Fmt.pf ppf "CG{%a}" (Fmt.list ~sep:Fmt.comma pp_node) (Id_map.bindings g.nodes)
