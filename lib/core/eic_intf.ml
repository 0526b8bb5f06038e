(* The eventual irrevocable consensus (EIC) abstraction (Appendix A).

   EIC relaxes EC-Integrity instead of EC-Agreement: a process may respond
   several times to proposeEIC_l (revoking earlier responses), but only for
   finitely many instances; the response "at time t" is the last response
   before t.  Appendix A proves EIC equivalent to EC (Theorem 3). *)

open Simulator

type Io.input += Propose_eic of { instance : int; value : Value.t }

type Io.output +=
  | Proposed_eic of { instance : int; value : Value.t }
  | Decide_eic of { instance : int; value : Value.t }
      (* May be emitted several times for one instance: each later emission
         revokes the earlier ones. *)

type decision = { instance : int; value : Value.t }

type service = {
  propose : instance:int -> Value.t -> unit;
  on_decide : (decision -> unit) -> unit;
}

type backend = {
  ctx : Engine.ctx;
  listeners : decision Listeners.t;
}

let backend ctx = { ctx; listeners = Listeners.create () }

let record_proposal backend ~instance value =
  backend.ctx.Engine.output (Proposed_eic { instance; value })

let record_decision backend ~instance value =
  let d = { instance; value } in
  backend.ctx.Engine.output (Decide_eic { instance; value });
  Listeners.fire backend.listeners d

let service_of backend ~propose =
  { propose; on_decide = Listeners.register backend.listeners }

let () =
  Io.register_input_text (fun b -> function
    | Propose_eic { instance; value } ->
      Printf.bprintf b "proposeEIC_%d(%a)" instance Value.add_text value; true
    | _ -> false);
  Io.register_output_text (fun () b _ -> function
    | Proposed_eic { instance; value } ->
      Printf.bprintf b "proposedEIC_%d(%a)" instance Value.add_text value; true
    | Decide_eic { instance; value } ->
      Printf.bprintf b "decideEIC_%d(%a)" instance Value.add_text value; true
    | _ -> false)
