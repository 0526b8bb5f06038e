(* The eventual consensus (EC) abstraction: interface conventions.

   EC exports operations proposeEC_1, proposeEC_2, ... taking values and
   returning responses such that, in every admissible run, there is a k with
   (Section 3):
   - EC-Termination: every correct process eventually responds to every
     proposeEC_j;
   - EC-Integrity: no process responds twice to proposeEC_j;
   - EC-Validity: every value returned to proposeEC_j was proposed to it;
   - EC-Agreement: no two processes return different values to proposeEC_j
     for j >= k.

   Implementations record each proposal and each decision in the run's
   output history, so that the checkers in [Properties] can verify all four
   clauses from the trace alone. *)

open Simulator

type Io.input += Propose_ec of { instance : int; value : Value.t }

(* [layer] distinguishes stacked EC instances in one process (e.g. the
   Algorithm-4 substrate underneath Algorithm 1 underneath Algorithm 2):
   checkers analyse one layer at a time. *)
type Io.output +=
  | Proposed_ec of { layer : string; instance : int; value : Value.t }
  | Decide_ec of { layer : string; instance : int; value : Value.t }

type decision = { instance : int; value : Value.t }

let default_layer = "ec"

type service = {
  propose : instance:int -> Value.t -> unit;
  (* Register an observer of decisions; fires once per decided instance. *)
  on_decide : (decision -> unit) -> unit;
}

(* Shared plumbing for EC implementations: records the proposal/decision
   output history and drives observers. *)
type backend = {
  ctx : Engine.ctx;
  layer : string;
  listeners : decision Listeners.t;
  mutable decisions : decision list;  (* all decisions so far, latest first *)
}

let backend ?(layer = default_layer) ctx =
  { ctx; layer; listeners = Listeners.create (); decisions = [] }

let ctx_of backend = backend.ctx

let record_proposal backend ~instance value =
  backend.ctx.Engine.output (Proposed_ec { layer = backend.layer; instance; value })

let record_decision backend ~instance value =
  let d = { instance; value } in
  backend.decisions <- d :: backend.decisions;
  backend.ctx.Engine.output (Decide_ec { layer = backend.layer; instance; value });
  Listeners.fire backend.listeners d

let has_decided backend ~instance =
  List.exists (fun d -> d.instance = instance) backend.decisions

let service_of backend ~propose =
  { propose; on_decide = Listeners.register backend.listeners }

let () =
  Io.register_input_text (fun b -> function
    | Propose_ec { instance; value } ->
      Printf.bprintf b "proposeEC_%d(%a)" instance Value.add_text value; true
    | _ -> false);
  Io.register_output_text (fun () b _ -> function
    | Proposed_ec { layer; instance; value } ->
      Printf.bprintf b "%s:proposedEC_%d(%a)" layer instance Value.add_text value; true
    | Decide_ec { layer; instance; value } ->
      Printf.bprintf b "%s:decideEC_%d(%a)" layer instance Value.add_text value; true
    | _ -> false)
