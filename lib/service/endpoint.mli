(** The replica-side request endpoint: immediate acks, reads served from the
    requested view, watched writes with queue-depth admission control
    (load-shedding past [queue_limit]), and submit-side idempotency for
    retried request ids.  Stack it {e after} the protocol and replica
    components so its polls see the step's deliveries. *)

open Simulator
open Simulator.Types

type views = {
  weak_find : string -> string option;  (** speculative read of a key *)
  strong_find : string -> string option;  (** committed-prefix read *)
  weak_has : client:proc_id -> rid:int -> bool;
      (** the rid's write is in the delivered (speculative) log *)
  strong_has : client:proc_id -> rid:int -> bool;
      (** … in the committed prefix *)
  submit : Replication.Command.t -> unit;
      (** hand a command to the replication fabric *)
}
(** How the endpoint reads and writes its replica; closures over the
    replica handle, supplied by {!Runner}. *)

type t

val create :
  Engine.ctx -> spec:Harness.Service_spec.t -> views:views -> t * Engine.node
