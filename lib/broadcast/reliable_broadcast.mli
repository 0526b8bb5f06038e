(** Reliable broadcast over reliable links (eager push with relaying):
    validity, agreement among correct processes, integrity. *)

open Simulator
open Simulator.Types

type Msg.payload += Rb of { origin : proc_id; sn : int; inner : Msg.payload }

type t

val create :
  Engine.ctx ->
  deliver:(origin:proc_id -> sn:int -> Msg.payload -> unit) ->
  t * Engine.node
(** The broadcast state and the protocol component to stack into the node.
    [deliver] fires exactly once per (origin, sn), including for the
    broadcaster's own messages. *)

val broadcast : t -> Msg.payload -> unit
