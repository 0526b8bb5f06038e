(** Algorithm 7 (Appendix A): the transformation from eventual irrevocable
    consensus back to EC (only the first response per instance counts). *)

open Simulator

type t

val create :
  ?layer:string -> Engine.ctx -> eic:Eic_intf.service -> t * Engine.node
val service : t -> Ec_intf.service
