(** Algorithm 4 of the paper: eventual consensus from Omega, correct in any
    environment (Lemma 2) — no correct-majority assumption. *)

open Simulator
open Simulator.Types

type Msg.payload += Promote_ec of { value : Value.t; instance : int }

type t

val create :
  ?layer:string -> Engine.ctx -> omega:(unit -> proc_id) -> t * Engine.node
(** [omega] is the process's local Omega module (see
    {!Detectors.Omega.module_of} or {!Detectors.Omega_election.leader}). *)

val service : t -> Ec_intf.service
