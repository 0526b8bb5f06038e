(** The eventual irrevocable consensus (EIC) abstraction (Appendix A):
    EC with eventual integrity instead of eventual agreement — responses may
    be revoked, but only finitely often. *)

open Simulator

type Io.input += Propose_eic of { instance : int; value : Value.t }

type Io.output +=
  | Proposed_eic of { instance : int; value : Value.t }
  | Decide_eic of { instance : int; value : Value.t }
      (** May repeat per instance: each emission revokes earlier ones. *)

type decision = { instance : int; value : Value.t }

type service = {
  propose : instance:int -> Value.t -> unit;
  on_decide : (decision -> unit) -> unit;
}

(** {2 Implementation plumbing} *)

type backend

val backend : Engine.ctx -> backend
val record_proposal : backend -> instance:int -> Value.t -> unit
val record_decision : backend -> instance:int -> Value.t -> unit
val service_of : backend -> propose:(instance:int -> Value.t -> unit) -> service
