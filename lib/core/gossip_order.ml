(* A leaderless ordering baseline — what you get WITHOUT Omega.

   Every process gossips its causality graph and outputs a deterministic
   linearization of everything it has seen (a fixed global tie-break inside
   the causal order, with no prefix constraint).  This is the classical
   "timestamp ordering" of optimistic replication: since all processes
   apply the same deterministic rule to converging graphs, their outputs
   converge once broadcasts stop.

   It is NOT an implementation of ETOB, and that is its purpose here: a
   message with a small tie-break key arriving late inserts itself in the
   MIDDLE of already-output sequences, so ETOB-Stability keeps being
   violated as long as new messages arrive — there is no time tau, fixed
   by the environment, after which outputs are prefix-monotone.  Contrast
   with Algorithm 5, whose tau is bounded by tau_Omega + Delta_t + Delta_c
   regardless of the workload (experiment E13).  The gap is exactly the
   information Omega provides. *)

open Simulator

type Msg.payload += Gossip_graph of Causal_graph.t

type t = {
  backend : Etob_intf.backend;
  tie_break : App_msg.t -> App_msg.t -> int;
  mutable cg : Causal_graph.t;
}

let output t =
  let seq = Dseq.of_list (Causal_graph.linearize ~tie_break:t.tie_break t.cg ~prefix:[]) in
  if not (Dseq.equal seq (Etob_intf.current_of t.backend)) then
    Etob_intf.set_delivered t.backend seq

let broadcast t m =
  Etob_intf.record_broadcast t.backend m;
  t.cg <- Causal_graph.add t.cg m;
  (Etob_intf.ctx_of t.backend).Engine.broadcast (Gossip_graph t.cg);
  output t

let create ?(tie_break = Causal_graph.default_tie_break) (ctx : Engine.ctx) =
  let t = { backend = Etob_intf.backend ctx; tie_break; cg = Causal_graph.empty } in
  let on_message ~src:_ payload =
    match payload with
    | Gossip_graph cg ->
      t.cg <- Causal_graph.union t.cg cg;
      output t
    | _ -> ()
  in
  let on_timer () =
    (* Periodic anti-entropy: keeps convergence independent of who
       broadcast last. *)
    if Causal_graph.size t.cg > 0 then
      (Etob_intf.ctx_of t.backend).Engine.broadcast (Gossip_graph t.cg)
  in
  let on_input = function
    | Etob_intf.Broadcast_etob m -> broadcast t m
    | _ -> ()
  in
  (t, { Engine.on_message; on_timer; on_input })

let service t = Etob_intf.service_of t.backend ~broadcast:(fun m -> broadcast t m)
