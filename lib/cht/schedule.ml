(* Configurations and schedule steps for the CHT simulation (Appendix B.3).

   A configuration holds every process's automaton state, the per-process
   FIFO message buffers and the cumulative decision log.  A step is
   triggered by a DAG vertex [p, d, k]: process p takes one step in which it
   receives the oldest message addressed to it (or the empty message
   lambda), or accepts an input (an invocation of proposeEC with a chosen
   value), sees failure-detector value d, and sends its messages. *)

open Simulator.Types

type step = {
  s_vertex : int;  (* DAG vertex id supplying (process, detector value) *)
  s_recv : (proc_id * Pure.pmsg) option;
  s_invoke : (int * bool) option;
}

type 'state config = {
  states : 'state array;
  buffers : (proc_id * Pure.pmsg) list array;  (* oldest first *)
  decisions : (proc_id * int * bool) list;  (* chronological *)
}

let initial (algo : 'state Pure.algo) ~n =
  { states = Array.init n (fun p -> algo.Pure.a_init ~n p);
    buffers = Array.make n [];
    decisions = [] }

let oldest config p =
  match config.buffers.(p) with [] -> None | m :: _ -> Some m

(* Steps are content-equal when they would drive the automaton identically;
   the DAG vertex id may differ (two samples with the same value). *)
let same_step_content dag a b =
  let va = Dag.vertex dag a.s_vertex and vb = Dag.vertex dag b.s_vertex in
  va.Dag.v_proc = vb.Dag.v_proc
  && Fd_value.equal va.Dag.v_value vb.Dag.v_value
  && a.s_recv = b.s_recv
  && a.s_invoke = b.s_invoke

let apply ~dag (algo : 'state Pure.algo) config step =
  let v = Dag.vertex dag step.s_vertex in
  let p = v.Dag.v_proc in
  let n = Array.length config.states in
  let buffers = Array.copy config.buffers in
  (match step.s_recv with
   | None -> ()
   | Some m ->
     (match buffers.(p) with
      | m' :: rest when m' = m -> buffers.(p) <- rest
      | _ -> invalid_arg "Schedule.apply: received message is not the oldest pending"));
  let state', sends, decs =
    algo.Pure.a_step ~n ~self:p config.states.(p)
      ~recv:step.s_recv ~fd:v.Dag.v_value ~invoke:step.s_invoke
  in
  List.iter (fun (dst, m) -> buffers.(dst) <- buffers.(dst) @ [ (p, m) ]) sends;
  let states = Array.copy config.states in
  states.(p) <- state';
  { states;
    buffers;
    decisions = config.decisions @ List.map (fun (l, v) -> (p, l, v)) decs }

(* Values decided for instance [k] anywhere in the configuration's run. *)
let values_for config ~instance =
  List.sort_uniq Bool.compare
    (List.filter_map (fun (_, l, v) -> if l = instance then Some v else None)
       config.decisions)

(* Two different values returned for the same instance within this single
   run: the "bottom" tag of Section 4 (the vertex is k-invalid). *)
let conflicting config ~instance = List.length (values_for config ~instance) > 1

(* The run contains a response to proposeEC_{k-1} (k-enabledness). *)
let enabled config ~instance =
  instance = 1 || List.exists (fun (_, l, _) -> l = instance - 1) config.decisions
