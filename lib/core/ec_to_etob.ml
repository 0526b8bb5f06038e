(* Algorithm 1 of the paper: the transformation T_{EC -> ETOB}.

   Broadcast: send push(m) to all; receivers accumulate messages in the set
   toDeliver_i.  The process repeatedly runs eventual consensus on its
   current best sequence: after the response d to instance l, it sets
   d_i := d and proposes d . NewBatch(d_i, toDeliver_i) to instance l+1,
   where NewBatch lists the received messages not yet in d_i.  Once EC
   agreement kicks in, all processes agree on the same linearly growing
   sequence, which yields ETOB (Theorem 1, first half). *)

open Simulator

type Msg.payload += Push of App_msg.t

module Msg_set = Set.Make (App_msg)

type t = {
  backend : Etob_intf.backend;
  ec : Ec_intf.service;
  mutable to_deliver : Msg_set.t;
  mutable count : int;
}

(* NewBatch(d_i, toDeliver_i): the received messages missing from d_i, as a
   deterministic sequence. *)
let new_batch t =
  let in_d = App_msg.ids_of_seq (Dseq.to_list (Etob_intf.current_of t.backend)) in
  Msg_set.elements
    (Msg_set.filter (fun m -> not (App_msg.Id_set.mem (App_msg.id m) in_d)) t.to_deliver)

let propose_next t =
  t.count <- t.count + 1;
  t.ec.Ec_intf.propose ~instance:t.count
    (Value.Seq (Dseq.to_list (Etob_intf.current_of t.backend) @ new_batch t))

let broadcast t m =
  Etob_intf.record_broadcast t.backend m;
  (Etob_intf.ctx_of t.backend).Engine.broadcast (Push m)

let create (ctx : Engine.ctx) ~ec =
  let t = { backend = Etob_intf.backend ctx; ec; to_deliver = Msg_set.empty; count = 0 } in
  ec.Ec_intf.on_decide (fun d ->
      if d.Ec_intf.instance = t.count then begin
        (match d.Ec_intf.value with
         | Value.Seq seq -> Etob_intf.set_delivered t.backend (Dseq.of_list seq)
         | Value.Flag _ | Value.Num _ | Value.Vec _ ->
           (* EC-Validity rules this out: only sequences are proposed. *)
           invalid_arg "Ec_to_etob: non-sequence value decided");
        propose_next t
      end);
  let on_message ~src:_ payload =
    match payload with
    | Push m -> t.to_deliver <- Msg_set.add m t.to_deliver
    | _ -> ()
  in
  let on_timer () = if t.count = 0 then propose_next t in
  let on_input = function
    | Etob_intf.Broadcast_etob m -> broadcast t m
    | _ -> ()
  in
  (t, { Engine.on_message; on_timer; on_input })

let service t = Etob_intf.service_of t.backend ~broadcast:(fun m -> broadcast t m)
