(* Drives the EC usage assumption of Section 3: every process invokes
   proposeEC_j as soon as it returns a response to proposeEC_{j-1}.

   The driver proposes instance 1 on the process's first local timeout and
   instance j+1 as soon as instance j decides, with values drawn from a
   caller-supplied function (the "application").  Used by tests and benches
   that exercise a bare EC implementation; the EC-to-ETOB transformation has
   its own proposing discipline and does not use the driver. *)

open Simulator

type t = {
  service : Ec_intf.service;
  propose_value : instance:int -> Value.t;
  max_instance : int;
  mutable proposed_up_to : int;
}

let propose_next t =
  let next = t.proposed_up_to + 1 in
  if next <= t.max_instance then begin
    t.proposed_up_to <- next;
    t.service.Ec_intf.propose ~instance:next (t.propose_value ~instance:next)
  end

let attach service ~propose_value ~max_instance =
  if max_instance < 1 then invalid_arg "Ec_driver.attach: max_instance must be >= 1";
  let t = { service; propose_value; max_instance; proposed_up_to = 0 } in
  service.Ec_intf.on_decide (fun d ->
      if d.Ec_intf.instance = t.proposed_up_to then propose_next t);
  let on_timer () = if t.proposed_up_to = 0 then propose_next t in
  let node =
    { Engine.on_message = (fun ~src:_ _ -> ());
      on_timer;
      on_input = (fun _ -> ()) }
  in
  (t, node)
