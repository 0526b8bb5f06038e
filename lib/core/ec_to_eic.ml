(* Algorithm 6 (Appendix A): the transformation T_{EC -> EIC}.

   proposeEIC_l(v) proposes the sequence decision_i . v to EC instance l.
   When EC instance l responds with a sequence, every component that differs
   from the locally recorded one is (re-)decided — revocations happen only
   while EC disagrees, hence finitely often (Lemma 4). *)

open Simulator

type t = {
  backend : Eic_intf.backend;
  ec : Ec_intf.service;
  mutable decision : Value.t list;  (* decision_i, index k-1 <-> instance k *)
}

let propose t ~instance value =
  if instance < 1 then invalid_arg "Ec_to_eic.propose: instances start at 1";
  Eic_intf.record_proposal t.backend ~instance value;
  t.ec.Ec_intf.propose ~instance (Value.Vec (t.decision @ [ value ]))

let on_ec_decide t (d : Ec_intf.decision) =
  match d.Ec_intf.value with
  | Value.Vec decision ->
    (* Commit the new decision sequence before firing responses: a response
       listener may immediately invoke the next proposeEIC, which must read
       the up-to-date decision_i. *)
    let known = t.decision in
    t.decision <- decision;
    List.iteri
      (fun idx v ->
         let instance = idx + 1 in
         let changed =
           match List.nth_opt known idx with
           | None -> true
           | Some v0 -> not (Value.equal v0 v)
         in
         if changed then Eic_intf.record_decision t.backend ~instance v)
      decision
  | Value.Flag _ | Value.Num _ | Value.Seq _ ->
    (* EC-Validity rules this out: only Vec values are proposed. *)
    invalid_arg "Ec_to_eic: non-sequence value decided"

let create (ctx : Engine.ctx) ~ec =
  let t = { backend = Eic_intf.backend ctx; ec; decision = [] } in
  ec.Ec_intf.on_decide (on_ec_decide t);
  let on_input = function
    | Eic_intf.Propose_eic { instance; value } -> propose t ~instance value
    | _ -> ()
  in
  let node =
    { Engine.on_message = (fun ~src:_ _ -> ());
      on_timer = (fun () -> ());
      on_input }
  in
  (t, node)

let service t = Eic_intf.service_of t.backend ~propose:(fun ~instance v -> propose t ~instance v)
