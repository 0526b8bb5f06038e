(** Chandra–Toueg rotating-coordinator consensus over [<>S] with a correct
    majority: one instance of (strong) consensus, the classical algorithm
    whose weakest-detector analysis the paper's Section 4 generalizes. *)

open Simulator
open Simulator.Types

type Msg.payload +=
  | Ct_estimate of { round : int; value : Ec_core.Value.t; stamp : int }
  | Ct_proposal of { round : int; value : Ec_core.Value.t }
  | Ct_ack of { round : int }
  | Ct_nack of { round : int }
  | Ct_decide of Ec_core.Value.t

type Io.input += Ct_propose of Ec_core.Value.t
type Io.output += Ct_decided of Ec_core.Value.t

type t

val create :
  Engine.ctx -> suspects:(unit -> proc_id list) -> t * Engine.node
(** [suspects] is the process's local [<>S] module (see
    {!Detectors.Suspicions.es_module_of}). *)
