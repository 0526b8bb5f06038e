(** Algorithm 2: the transformation from eventual total order broadcast to
    eventual consensus (second half of Theorem 1).  Values must be scalar
    ([Flag]/[Num]) since they are embedded in message tags. *)

open Simulator

type t

val create :
  ?layer:string -> Engine.ctx -> etob:Etob_intf.service -> t * Engine.node
(** Build the transformation over a black-box ETOB service; stack the
    returned node with the ETOB implementation's node. *)

val service : t -> Ec_intf.service

(**/**)

val tag_of : instance:int -> Value.t -> string
val parse_tag : string -> (int * Value.t) option
