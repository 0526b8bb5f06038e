(** Algorithm 1: the transformation from eventual consensus to eventual
    total order broadcast (first half of Theorem 1). *)

open Simulator

type Msg.payload += Push of App_msg.t

type t

val create : Engine.ctx -> ec:Ec_intf.service -> t * Engine.node
(** Build the transformation on top of a black-box EC service.  Stack the
    returned node together with the EC implementation's node. *)

val service : t -> Etob_intf.service
