(** The eventual consensus (EC) abstraction: interface conventions shared by
    all EC implementations and transformations (Section 3 of the paper). *)

open Simulator

type Io.input += Propose_ec of { instance : int; value : Value.t }
(** External invocation of [proposeEC_instance(value)]. *)

type Io.output +=
  | Proposed_ec of { layer : string; instance : int; value : Value.t }
      (** Recorded by the service on every proposal — the input history
          [H_I] seen by the property checkers.  [layer] distinguishes
          stacked EC instances within one process. *)
  | Decide_ec of { layer : string; instance : int; value : Value.t }
      (** A response of [proposeEC_instance]. *)

type decision = { instance : int; value : Value.t }

val default_layer : string

type service = {
  propose : instance:int -> Value.t -> unit;
  on_decide : (decision -> unit) -> unit;
}
(** The handle protocols stack on: propose and observe decisions. *)

(** {2 Implementation plumbing} *)

type backend

val backend : ?layer:string -> Engine.ctx -> backend
val ctx_of : backend -> Engine.ctx

val record_proposal : backend -> instance:int -> Value.t -> unit
val record_decision : backend -> instance:int -> Value.t -> unit
val has_decided : backend -> instance:int -> bool
val service_of : backend -> propose:(instance:int -> Value.t -> unit) -> service
