(** A replica: a deterministic state machine driven by an (E)TOB service.
    Over ETOB this is the paper's eventually consistent replicated service;
    over the strong TOB baseline, a classical replicated state machine. *)

open Simulator

type Io.input += Submit of Command.t
(** Client request routed to this replica. *)

type Io.output += Applied of { machine : string; count : int; digest : string }
(** Recorded on every revision of the delivered sequence. *)

(** The machine's fold of a delivered sequence, revised incrementally:
    when a new value keeps the last folded sequence
    ({!Ec_core.Dseq.delta}), {!update} decodes and applies only the
    messages past it, and otherwise refolds from the machine's initial
    state. *)
module Fold (M : Machines.MACHINE) : sig
  type t

  val create : unit -> t
  (** The fold of the empty sequence. *)

  val update : t -> Ec_core.Dseq.t -> unit
  (** Fold a new value of the sequence.  Tags that do not decode
      ({!Command.of_tag} = [None]) are skipped, as no command. *)

  val state : t -> M.state
  val count : t -> int
  (** Commands applied: the decoded tags of the sequence. *)

  val log : t -> Command.t list
  (** The decoded commands in order; built once per revision, on demand. *)
end

module Make (M : Machines.MACHINE) : sig
  type t

  val create : Engine.ctx -> etob:Ec_core.Etob_intf.service -> t * Engine.node

  val submit : t -> Command.t -> unit
  val state : t -> M.state
  val log : t -> Command.t list
  val digest : t -> string
end
