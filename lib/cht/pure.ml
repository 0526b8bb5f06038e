(* Purely functional automata for CHT simulation.

   The reduction of Section 4 simulates runs of the target algorithm A
   offline, triggered by paths through the sample DAG.  That requires A as
   a pure transition function (no engine, no wall clock): a step consumes
   at most one message OR one input (an invocation of proposeEC with a
   chosen value), sees one failure-detector value, and yields a new state,
   messages to send, and any decisions produced.

   [ec_omega] is the pure form of Algorithm 4; [ec_trusted] generalizes it
   to any detector whose values designate a leader through
   [Fd_value.trusted] (e.g. <>P), so the reduction can be exercised with a
   detector other than Omega itself. *)

open Simulator.Types

type pmsg = Promote of { value : bool; instance : int }

(* One decision: (instance, value) returned by the stepping process. *)
type decision = int * bool

type 'state algo = {
  a_name : string;
  a_init : n:int -> proc_id -> 'state;
  (* The instance this process is due to invoke at its next step: Some 1
     initially, Some (l+1) right after deciding l, None while an invocation
     is outstanding.  The tree branches on the invocation's value. *)
  a_pending_invocation : 'state -> int option;
  a_step :
    n:int ->
    self:proc_id ->
    'state ->
    recv:(proc_id * pmsg) option ->
    fd:Fd_value.t ->
    invoke:(int * bool) option ->
    'state * (proc_id * pmsg) list * decision list;
}

(* ------------------------------------------------------------------ *)
(* Pure Algorithm 4                                                    *)
(* ------------------------------------------------------------------ *)

module Pm = Map.Make (struct
    type t = proc_id * int
    let compare = compare
  end)

type ec_state = {
  count : int;  (* last instance invoked; 0 before the first *)
  received : bool Pm.t;  (* (sender, instance) -> promoted value *)
  decided : int list;  (* instances already decided here *)
  awaiting : bool;  (* an invocation is outstanding (no response yet) *)
}

let ec_init ~n:_ _self = { count = 0; received = Pm.empty; decided = []; awaiting = false }

let ec_pending state =
  if state.awaiting then None
  else Some (state.count + 1)

(* After any event, Algorithm 4's timeout guard: decide the current instance
   if the currently trusted process's promote for it has been received. *)
let ec_try_decide ~n ~self state ~fd =
  let leader = Fd_value.trusted ~n ~self fd in
  if state.awaiting && not (List.mem state.count state.decided) then
    match Pm.find_opt (leader, state.count) state.received with
    | Some v ->
      ({ state with decided = state.count :: state.decided; awaiting = false },
       [ (state.count, v) ])
    | None -> (state, [])
  else (state, [])

let ec_step ~n ~self state ~recv ~fd ~invoke =
  let state, sends =
    match invoke with
    | Some (l, v) ->
      if l <> state.count + 1 || state.awaiting then
        invalid_arg "Pure.ec_step: out-of-order invocation";
      let sends = List.map (fun q -> (q, Promote { value = v; instance = l })) (all_procs n) in
      ({ state with count = l; awaiting = true }, sends)
    | None -> (state, [])
  in
  let state =
    match recv with
    | Some (src, Promote { value; instance }) ->
      if Pm.mem (src, instance) state.received then state
      else { state with received = Pm.add (src, instance) value state.received }
    | None -> state
  in
  let state, decisions = ec_try_decide ~n ~self state ~fd in
  (state, sends, decisions)

let ec_trusted =
  { a_name = "ec-trusted";
    a_init = ec_init;
    a_pending_invocation = ec_pending;
    a_step = ec_step }

let ec_omega = { ec_trusted with a_name = "ec-omega" }
