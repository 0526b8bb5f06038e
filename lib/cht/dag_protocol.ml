(* The communication task of the CHT reduction (Appendix B.2, Figure 1),
   as a real protocol running on the simulation engine.

   Every process periodically queries its failure-detector module, appends
   the sample as a new vertex with edges from every vertex it currently
   knows, and broadcasts its whole DAG; on receiving a peer's DAG it takes
   the union.  This realizes, executably, the properties (1)-(4) of
   Appendix B.2, and the local DAGs G_p(t) of correct processes converge
   to a common ever-growing limit.

   Unlike [Dag.build] (the deterministic synthetic builder used where
   reproducibility of a specific DAG matters), the protocol produces
   per-process DAGs that genuinely differ transiently — which is exactly
   what the per-process extraction of Figure 6 consumes.

   Representation: vertices are globally identified by (proc, index); each
   process stores, per vertex, the set of vertices it had when the vertex
   was created (its predecessor set).  Union-merging keeps predecessor
   sets exact because a vertex's predecessors are fixed at creation. *)

open Simulator
open Simulator.Types

type vkey = proc_id * int  (* (creator, k-th query) *)

type vertex_info = {
  vi_value : Fd_value.t;
  vi_time : time;  (* creation time, for diagnostics and windowing *)
  vi_preds : vkey list;
}

type graph = (vkey * vertex_info) list  (* wire format: association list *)

type Msg.payload += Dag_gossip of graph

module Vmap = Map.Make (struct
    type t = vkey
    let compare = compare
  end)

type t = {
  sample : unit -> Fd_value.t;
  mutable vertices : vertex_info Vmap.t;
  mutable next_index : int;
}

let create (ctx : Engine.ctx) ~sample =
  let t = { sample; vertices = Vmap.empty; next_index = 1 } in
  let on_timer () =
    (* Query the detector, add the vertex with edges from everything known,
       broadcast the whole DAG. *)
    let value = t.sample () in
    let key = (ctx.Engine.self, t.next_index) in
    t.next_index <- t.next_index + 1;
    let preds = List.map fst (Vmap.bindings t.vertices) in
    t.vertices <-
      Vmap.add key { vi_value = value; vi_time = ctx.Engine.now (); vi_preds = preds }
        t.vertices;
    ctx.Engine.broadcast (Dag_gossip (Vmap.bindings t.vertices))
  in
  let on_message ~src:_ payload =
    match payload with
    | Dag_gossip graph ->
      List.iter
        (fun (key, info) ->
           if not (Vmap.mem key t.vertices) then
             t.vertices <- Vmap.add key info t.vertices)
        graph
    | _ -> ()
  in
  (t, { Engine.on_message; on_timer; on_input = (fun _ -> ()) })

let size t = Vmap.cardinal t.vertices

(* Direct + derived reachability: u -> v iff u is in v's predecessor set,
   or they share a creator with u earlier (property 2), or transitively.
   Predecessor sets are transitively closed by construction (a vertex's
   preds are ALL vertices its creator knew, and the creator knew the preds
   of those too), so the direct check suffices for same-knowledge edges;
   the same-creator rule is folded in explicitly. *)
let has_edge t u v =
  match Vmap.find_opt v t.vertices with
  | None -> false
  | Some info ->
    List.mem u info.vi_preds || (fst u = fst v && snd u < snd v)

(* Export a process's local DAG in the [Dag] form consumed by the
   simulation tree and the extraction, ordering vertices by creation time
   (ties by creator id): the executable counterpart of "G_p(t)".  The
   failure pattern is supplied by the analysis harness (the protocol
   itself, realistically, does not know it). *)
let export t ~pattern =
  let ordered =
    List.sort
      (fun ((p1, k1), i1) ((p2, k2), i2) ->
         compare (i1.vi_time, p1, k1) (i2.vi_time, p2, k2))
      (Vmap.bindings t.vertices)
  in
  let index_of = Hashtbl.create 64 in
  List.iteri (fun i (key, _) -> Hashtbl.add index_of key i) ordered;
  (* Per-process sample indices follow creation order; since a process's
     own samples are totally ordered in time, this matches its k indices. *)
  let next = Hashtbl.create 8 in
  let vertices =
    Array.of_list
      (List.mapi
         (fun i ((p, _), info) ->
            let k = 1 + Option.value ~default:0 (Hashtbl.find_opt next p) in
            Hashtbl.replace next p k;
            { Dag.v_id = i; v_proc = p; v_index = k; v_time = info.vi_time;
              v_value = info.vi_value })
         ordered)
  in
  let edges =
    List.concat_map
      (fun (key, info) ->
         let vi = Hashtbl.find index_of key in
         List.filter_map
           (fun pred ->
              match Hashtbl.find_opt index_of pred with
              | Some pi -> Some (pi, vi)
              | None -> None)
           info.vi_preds)
      ordered
  in
  Dag.of_explicit ~pattern ~vertices ~edges

(* Appendix B.2 property checks on the protocol-built local DAG. *)

let check_same_creator_order t =
  Vmap.for_all
    (fun (p, k) _ ->
       k = 1 || has_edge t (p, k - 1) (p, k))
    t.vertices

let check_transitive t =
  let keys = List.map fst (Vmap.bindings t.vertices) in
  List.for_all
    (fun u ->
       List.for_all
         (fun v ->
            (not (has_edge t u v))
            || List.for_all
              (fun w -> (not (has_edge t v w)) || has_edge t u w)
              keys)
         keys)
    keys

(* The local DAGs of two processes agree on their common vertices (same
   values, same predecessor sets): convergence in the sense of B.5. *)
let agrees_with a b =
  Vmap.for_all
    (fun key info ->
       match Vmap.find_opt key b.vertices with
       | None -> true
       | Some info' ->
         Fd_value.equal info.vi_value info'.vi_value
         && info.vi_preds = info'.vi_preds)
    a.vertices
