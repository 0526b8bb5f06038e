(* Algorithm 7 (Appendix A): the transformation T_{EIC -> EC}.

   proposeEC_l(v) simply invokes proposeEIC_l(v); only the FIRST EIC response
   for the current instance becomes the EC response (later revocations are
   ignored), which restores EC-Integrity (Lemma 5). *)

open Simulator

type t = {
  backend : Ec_intf.backend;
  eic : Eic_intf.service;
  mutable count : int;
}

let propose t ~instance value =
  if instance < 1 then invalid_arg "Eic_to_ec.propose: instances start at 1";
  t.count <- instance;
  Ec_intf.record_proposal t.backend ~instance value;
  t.eic.Eic_intf.propose ~instance value

let create ?layer (ctx : Engine.ctx) ~eic =
  let t = { backend = Ec_intf.backend ?layer ctx; eic; count = 0 } in
  eic.Eic_intf.on_decide (fun (d : Eic_intf.decision) ->
      if d.Eic_intf.instance = t.count
      && not (Ec_intf.has_decided t.backend ~instance:t.count)
      then Ec_intf.record_decision t.backend ~instance:t.count d.Eic_intf.value);
  let on_input = function
    | Ec_intf.Propose_ec { instance; value } -> propose t ~instance value
    | _ -> ()
  in
  let node =
    { Engine.on_message = (fun ~src:_ _ -> ());
      on_timer = (fun () -> ());
      on_input }
  in
  (t, node)

let service t = Ec_intf.service_of t.backend ~propose:(fun ~instance v -> propose t ~instance v)
