(** Drives the EC usage assumption: propose instance 1 at startup and
    instance [j+1] as soon as instance [j] decides, up to [max_instance]. *)

open Simulator

type t

val attach :
  Ec_intf.service ->
  propose_value:(instance:int -> Value.t) ->
  max_instance:int ->
  t * Engine.node
