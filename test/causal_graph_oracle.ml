(* Test oracle: the original, whole-history implementation of the
   causality graph, kept verbatim as the reference that the incremental
   [Ec_core.Causal_graph] is checked against (test_core's differential
   properties).  Every operation here recomputes from the full graph:
   [union] merges both maps, [ready] iterates to a fixpoint over all nodes
   and [linearize] re-sorts the remaining set on every placement.

   The causality graph CG_i of Algorithm 5.

   Nodes are application messages; an edge (m1, m2) records that m2 causally
   depends on m1 (m1 in C(m2)).  The three functions of the paper:

   - UpdateCG(m, C(m))  -> [add]
   - UnionCG(CG_j)      -> [union]
   - UpdatePromote()    -> [linearize]

   [linearize] must return a sequence s such that (i) the given prefix is a
   prefix of s, (ii) s contains every message of the graph exactly once, and
   (iii) for every edge (m1, m2), m1 appears before m2.  Any topological
   extension qualifies; for determinism we extend with Kahn's algorithm using
   a configurable tie-break (default: smallest (origin, sn) first).  The
   ablation benchmark checks that correctness is tie-break-independent. *)

open Ec_core

type t = {
  nodes : App_msg.t App_msg.Id_map.t;
  (* For each node id, the ids of its direct causal predecessors that are
     known to the graph.  Dependencies on unknown messages are kept so the
     union can reinstate them; [linearize] only orders present nodes, which
     matches the paper: the promoted sequence contains all messages of the
     graph itself. *)
  preds : App_msg.Id_set.t App_msg.Id_map.t;
}

let empty = { nodes = App_msg.Id_map.empty; preds = App_msg.Id_map.empty }

let size g = App_msg.Id_map.cardinal g.nodes
let mem g id = App_msg.Id_map.mem id g.nodes
let find g id = App_msg.Id_map.find_opt id g.nodes
let messages g = List.map snd (App_msg.Id_map.bindings g.nodes)

let preds g id =
  match App_msg.Id_map.find_opt id g.preds with
  | None -> App_msg.Id_set.empty
  | Some s -> s

(* UpdateCG(m, C(m)): add the node m and the edges {(m', m) | m' in C(m)}. *)
let add g m =
  let mid = App_msg.id m in
  if mem g mid then g
  else
    let dep_set =
      List.fold_left (fun acc d -> App_msg.Id_set.add d acc) App_msg.Id_set.empty
        m.App_msg.deps
    in
    { nodes = App_msg.Id_map.add mid m g.nodes;
      preds = App_msg.Id_map.add mid dep_set g.preds }

(* UnionCG: union of nodes and of edge sets. *)
let union a b =
  let nodes =
    App_msg.Id_map.union (fun _ m _ -> Some m) a.nodes b.nodes
  in
  let preds =
    App_msg.Id_map.union (fun _ sa sb -> Some (App_msg.Id_set.union sa sb))
      a.preds b.preds
  in
  { nodes; preds }

let edges g =
  App_msg.Id_map.fold
    (fun mid ps acc ->
       App_msg.Id_set.fold (fun p acc -> (p, mid) :: acc) ps acc)
    g.preds []

(* The dependency-closed restriction: the largest subgraph in which every
   node's recorded predecessors are all present.  A node with a dangling
   dependency — its causal past has not fully arrived — is excluded,
   together with everything that depends on it.  Algorithm 5 promotes only
   this part of the graph (the "dependency wait"): promoting a message
   before its dependency is known would lock it into the prefix ahead of
   the dependency and permanently violate causal order once it arrives. *)
let ready g =
  let rec shrink nodes =
    let nodes' =
      App_msg.Id_map.filter
        (fun id _ ->
           App_msg.Id_set.for_all
             (fun p -> App_msg.Id_map.mem p nodes)
             (preds g id))
        nodes
    in
    if App_msg.Id_map.cardinal nodes' = App_msg.Id_map.cardinal nodes then nodes
    else shrink nodes'
  in
  let nodes = shrink g.nodes in
  { nodes;
    preds = App_msg.Id_map.filter (fun id _ -> App_msg.Id_map.mem id nodes) g.preds }

let default_tie_break = App_msg.compare

exception Cycle of App_msg.id list

(* UpdatePromote: extend [prefix] to a topological linearization of the full
   graph.  Messages already in [prefix] keep their positions; remaining
   messages are appended in an order respecting every (present-node) edge.
   Raises [Cycle] if the dependency relation restricted to present nodes is
   cyclic, which cannot happen for genuine causal dependencies. *)
let linearize ?(tie_break = default_tie_break) g ~prefix =
  let placed = App_msg.ids_of_seq prefix in
  let remaining =
    List.filter (fun m -> not (App_msg.Id_set.mem (App_msg.id m) placed)) (messages g)
  in
  (* Unsatisfied predecessor count, counting only predecessors that are
     present in the graph and not already placed by the prefix. *)
  let blocking m =
    App_msg.Id_set.fold
      (fun p acc ->
         if mem g p && not (App_msg.Id_set.mem p placed) then p :: acc else acc)
      (preds g (App_msg.id m)) []
  in
  let rec kahn placed acc remaining =
    match remaining with
    | [] -> List.rev acc
    | _ ->
      let ready, blocked =
        List.partition
          (fun m ->
             App_msg.Id_set.for_all
               (fun p -> (not (mem g p)) || App_msg.Id_set.mem p placed)
               (preds g (App_msg.id m)))
          remaining
      in
      (match List.sort tie_break ready with
       | [] -> raise (Cycle (List.concat_map blocking blocked))
       | next :: _ ->
         let placed = App_msg.Id_set.add (App_msg.id next) placed in
         kahn placed (next :: acc)
           (List.filter (fun m -> not (App_msg.equal m next)) remaining))
  in
  prefix @ kahn placed [] remaining

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
  Fmt.pf ppf "CG{%a}" (Fmt.list ~sep:Fmt.comma pp_node) (App_msg.Id_map.bindings g.nodes)
