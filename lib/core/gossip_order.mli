(** A leaderless timestamp-ordering baseline (no Omega): outputs converge
    once broadcasts stop, but ETOB-Stability is violated for as long as new
    messages arrive — there is no environment-bounded tau.  A negative
    baseline making the information content of Omega visible (E13). *)

open Simulator

type Msg.payload += Gossip_graph of Causal_graph.t

type t

val create :
  ?tie_break:(App_msg.t -> App_msg.t -> int) -> Engine.ctx -> t * Engine.node

val service : t -> Etob_intf.service
