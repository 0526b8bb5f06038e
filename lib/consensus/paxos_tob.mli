(** Strong total order broadcast from repeated consensus (leader-based Paxos
    with learning by majority of [Accepted] messages) — the paper's
    strong-consistency baseline.

    Safety (agreement, total order, stability with tau = 0) holds in any
    run; liveness requires a correct majority.  Steady-state delivery takes
    three communication steps under a stable leader, versus two for
    Algorithm 5.  Exposes the same {!Ec_core.Etob_intf.service} as the ETOB
    implementations so identical checkers and workloads apply. *)

open Simulator
open Simulator.Types
open Ec_core

type Msg.payload +=
  | Req of App_msg.t
  | Prepare of { ballot : int }
  | Promise of { ballot : int; accepted : (int * int * App_msg.t list) list }
  | Accept of { ballot : int; slot : int; batch : App_msg.t list }
  | Accepted of { ballot : int; slot : int; batch : App_msg.t list }

type t

val create : Engine.ctx -> omega:(unit -> proc_id) -> t * Engine.node

val service : t -> Ec_core.Etob_intf.service
