(** Algorithm 6 (Appendix A): the transformation from EC to eventual
    irrevocable consensus. *)

open Simulator

type t

val create : Engine.ctx -> ec:Ec_intf.service -> t * Engine.node
val service : t -> Eic_intf.service
