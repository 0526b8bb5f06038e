(* The simulation tree Upsilon of Section 4 / Appendix B.3.

   Vertices are finite schedules of the target algorithm triggered by paths
   through the sample DAG; each vertex carries the configuration its
   schedule produces.  The infinite tree is materialized breadth-first up to
   explicit depth and node budgets; the per-process path-extension [width]
   (how many alternative samples of the same process may extend a path)
   bounds the branching while preserving what forks and hooks need —
   several detector values applicable to the same automaton state.

   Branch points:
   - which DAG vertex (process + detector value) takes the next step;
   - when the process is due to invoke the next proposeEC: the proposed
     value, 0 or 1 (the single-tree encoding of the CHT initial
     configurations, cf. the paper's footnote 2);
   - message receipt: the oldest pending message, or lambda when the buffer
     is empty (a fair-scheduling family sufficient for the reduction). *)

open Simulator

type 'state t = {
  dag : Dag.t;
  algo : 'state Pure.algo;
  width : int;
  allow_lambda : bool;
  mutable nodes : (int option * Schedule.step option * int) array;  (* parent, step, depth *)
  mutable configs : 'state Schedule.config array;
  mutable last_vertex : int array;  (* last DAG vertex id on path; -1 at root *)
  mutable used : int list array;  (* DAG vertex ids used on path *)
  mutable children : int list array;  (* filled in creation order *)
  mutable count : int;
}

let grow t =
  let cap = Array.length t.nodes in
  if t.count >= cap then begin
    let cap' = max 16 (cap * 2) in
    let extend a fill = Array.init cap' (fun i -> if i < cap then a.(i) else fill) in
    t.nodes <- extend t.nodes (None, None, 0);
    t.configs <- extend t.configs t.configs.(0);
    t.last_vertex <- extend t.last_vertex (-1);
    t.used <- extend t.used [];
    t.children <- extend t.children []
  end

let add_node t ~parent ~step ~config ~last_vertex ~used ~depth =
  grow t;
  let id = t.count in
  t.count <- id + 1;
  t.nodes.(id) <- (parent, step, depth);
  t.configs.(id) <- config;
  t.last_vertex.(id) <- last_vertex;
  t.used.(id) <- used;
  t.children.(id) <- [];
  (match parent with
   | Some p -> t.children.(p) <- t.children.(p) @ [ id ]
   | None -> ());
  id

let create ?(allow_lambda = false) ~dag ~algo ~width () =
  let n = Failures.n (Dag.pattern dag) in
  let root_config = Schedule.initial algo ~n in
  let t =
    { dag; algo; width; allow_lambda;
      nodes = Array.make 16 (None, None, 0);
      configs = Array.make 16 root_config;
      last_vertex = Array.make 16 (-1);
      used = Array.make 16 [];
      children = Array.make 16 [];
      count = 0 }
  in
  ignore
    (add_node t ~parent:None ~step:None ~config:root_config ~last_vertex:(-1)
       ~used:[] ~depth:0);
  t

let size t = t.count
let children t id = t.children.(id)
let step t id = match t.nodes.(id) with _, s, _ -> s
let depth t id = match t.nodes.(id) with _, _, d -> d
let config t id = t.configs.(id)
let dag t = t.dag

(* The candidate one-step extensions of a node, per the branch points
   documented above. *)
let extension_steps t id =
  let cfg = t.configs.(id) in
  let last =
    if t.last_vertex.(id) < 0 then None else Some (Dag.vertex t.dag t.last_vertex.(id))
  in
  let candidates = Dag.extensions t.dag ~last ~used:t.used.(id) ~width:t.width in
  List.concat_map
    (fun v ->
       let p = v.Dag.v_proc in
       match t.algo.Pure.a_pending_invocation cfg.Schedule.states.(p) with
       | Some l ->
         [ { Schedule.s_vertex = v.Dag.v_id; s_recv = None; s_invoke = Some (l, false) };
           { Schedule.s_vertex = v.Dag.v_id; s_recv = None; s_invoke = Some (l, true) } ]
       | None ->
         (match Schedule.oldest cfg p with
          | None -> [ { Schedule.s_vertex = v.Dag.v_id; s_recv = None; s_invoke = None } ]
          | Some m ->
            (* The empty-message step next to a deliverable one is what
               hooks are made of; it doubles branching, so it is opt-in. *)
            let receive =
              { Schedule.s_vertex = v.Dag.v_id; s_recv = Some m; s_invoke = None }
            in
            if t.allow_lambda then
              [ receive;
                { Schedule.s_vertex = v.Dag.v_id; s_recv = None; s_invoke = None } ]
            else [ receive ]))
    candidates

let expand_node t id =
  List.iter
    (fun (s : Schedule.step) ->
       let config = Schedule.apply ~dag:t.dag t.algo t.configs.(id) s in
       ignore
         (add_node t ~parent:(Some id) ~step:(Some s) ~config
            ~last_vertex:s.Schedule.s_vertex
            ~used:(s.Schedule.s_vertex :: t.used.(id))
            ~depth:(depth t id + 1)))
    (extension_steps t id)

(* Breadth-first materialization up to the given budgets: nodes are created
   in BFS order, so a single pass over ids in creation order visits the
   frontier in order. *)
let expand t ~max_depth ~max_nodes =
  let rec go id =
    if id < t.count && t.count < max_nodes then begin
      if depth t id < max_depth then expand_node t id;
      go (id + 1)
    end
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Tags and valency (Section 4)                                        *)
(* ------------------------------------------------------------------ *)

type tag = { tg_values : bool list; tg_invalid : bool }

(* The k-tag of every node, computed bottom-up over the materialized tree:
   the values returned for instance k in any explored descendant run, plus
   the invalidity mark when some descendant run returns two different
   values for k. *)
let tags t ~instance =
  let tags = Array.make t.count { tg_values = []; tg_invalid = false } in
  let merge a b =
    { tg_values = List.sort_uniq Bool.compare (a.tg_values @ b.tg_values);
      tg_invalid = a.tg_invalid || b.tg_invalid }
  in
  (* Nodes are created in BFS order, so children always have larger ids:
     a reverse scan is a valid bottom-up pass. *)
  let rec scan id =
    if id >= 0 then begin
      let own =
        { tg_values = Schedule.values_for t.configs.(id) ~instance;
          tg_invalid = Schedule.conflicting t.configs.(id) ~instance }
      in
      let with_children =
        List.fold_left (fun acc c -> merge acc tags.(c)) own (children t id)
      in
      tags.(id) <-
        (if Schedule.enabled t.configs.(id) ~instance then with_children
         else { tg_values = []; tg_invalid = false });
      scan (id - 1)
    end
  in
  scan (t.count - 1);
  tags

let is_bivalent tag = List.mem false tag.tg_values && List.mem true tag.tg_values

let is_univalent tag v =
  (match tag.tg_values with [ x ] -> Bool.equal x v | _ -> false)
  && not tag.tg_invalid
