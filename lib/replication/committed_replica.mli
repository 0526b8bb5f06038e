(** A replica with two read views over one delivered sequence: a fresh,
    revisable {e speculative} view (full [d_i]) and a stale, never-rolled-back
    {e committed} view (the Section 7 committed prefix) — the weak/strong
    operation split of systems like Zeno, which the paper cites. *)

open Simulator
open Simulator.Types

type Io.output +=
  | Applied_committed of { machine : string; count : int; digest : string }

module Make (M : Machines.MACHINE) : sig
  type t

  val create :
    Engine.ctx ->
    etob:Ec_core.Etob_intf.service ->
    omega:(unit -> proc_id) ->
    promotion:(unit -> Ec_core.Dseq.t) ->
    t * Engine.node
  (** Stack onto an Algorithm-5 process (needs its promotion sequence for
      the commit component, see {!Ec_core.Etob_omega.promotion}). *)

  val submit : t -> Command.t -> unit
  val speculative_state : t -> M.state
  val speculative_digest : t -> string
  val speculative_log : t -> Command.t list
  val committed_state : t -> M.state
  val committed_digest : t -> string
  val committed_log : t -> Command.t list
end

val committed_monotone : Trace.t -> bool
(** The committed view's applied-command count never decreases at any
    process: committed reads are never rolled back. *)
