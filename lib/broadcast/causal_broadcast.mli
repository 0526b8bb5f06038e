(** Causal-order broadcast (vector-clock algorithm over reliable broadcast):
    deliveries at every process respect the happens-before order. *)

open Simulator
open Simulator.Types

type Msg.payload += Cb of { origin : proc_id; vc : Vector_clock.t; inner : Msg.payload }

type t

val create :
  Engine.ctx ->
  deliver:(origin:proc_id -> vc:Vector_clock.t -> Msg.payload -> unit) ->
  t * Engine.node
(** [deliver] fires once per broadcast message, in an order consistent with
    causality; the delivered [vc] is the broadcast's timestamp. *)

val broadcast : t -> Msg.payload -> unit
