(* Algorithm 4 of the paper: eventual consensus using Omega, correct in ANY
   environment (Lemma 2) — no correct majority needed.

   Upon proposeEC_l(v), broadcast promote(v, l).  Store every received value
   in received[j][l].  On every local timeout, if a value from the process
   currently trusted by Omega is available for the current instance, decide
   it.  Once Omega stabilizes on a single correct leader, all processes
   decide the leader's proposals, which yields EC-Agreement for all
   instances started after stabilization. *)

open Simulator
open Simulator.Types

type Msg.payload += Promote_ec of { value : Value.t; instance : int }

type t = {
  backend : Ec_intf.backend;
  omega : unit -> proc_id;
  (* received.(j) maps instance -> value promoted by p_j. *)
  received : (int, Value.t) Hashtbl.t array;
  mutable count : int;  (* index of the last instance invoked here *)
}

let try_decide t =
  if t.count > 0 && not (Ec_intf.has_decided t.backend ~instance:t.count) then begin
    let leader = t.omega () in
    match Hashtbl.find_opt t.received.(leader) t.count with
    | None -> ()
    | Some v -> Ec_intf.record_decision t.backend ~instance:t.count v
  end

let propose t ~instance value =
  if instance < 1 then invalid_arg "Ec_omega.propose: instances start at 1";
  t.count <- instance;
  Ec_intf.record_proposal t.backend ~instance value;
  (Ec_intf.ctx_of t.backend).Engine.broadcast (Promote_ec { value; instance });
  (* The paper's "local time out" clause is a guard evaluated repeatedly; we
     additionally evaluate it at every event so a decision is never delayed
     past its enabling. *)
  try_decide t

let create ?layer (ctx : Engine.ctx) ~omega =
  let t =
    { backend = Ec_intf.backend ?layer ctx;
      omega;
      received = Array.init ctx.Engine.n (fun _ -> Hashtbl.create 16);
      count = 0 }
  in
  let on_message ~src payload =
    match payload with
    | Promote_ec { value; instance } ->
      (* p_j sends promote at most once per instance, so first write wins. *)
      if not (Hashtbl.mem t.received.(src) instance) then
        Hashtbl.add t.received.(src) instance value;
      try_decide t
    | _ -> ()
  in
  let on_input = function
    | Ec_intf.Propose_ec { instance; value } -> propose t ~instance value
    | _ -> ()
  in
  let node = { Engine.on_message; on_timer = (fun () -> try_decide t); on_input } in
  (t, node)

let service t = Ec_intf.service_of t.backend ~propose:(fun ~instance v -> propose t ~instance v)
