(** Strong total order broadcast from repeated consensus (leader-based Paxos
    with learning by majority of [Accepted] messages) — the paper's
    strong-consistency baseline.

    Safety (agreement, total order, stability with tau = 0) holds in any
    run; liveness requires a correct majority.  Steady-state delivery takes
    three communication steps under a stable leader, versus two for
    Algorithm 5.  Exposes the same {!Ec_core.Etob_intf.service} as the ETOB
    implementations so identical checkers and workloads apply.

    It does not promise causal order.  The leader batches the requests it
    has received, in id order, as they arrive, so a message can be chosen
    in an earlier slot than a dependency that reaches the leader later.
    That is legal for TOB; causal order (P3) is Algorithm 5's.
    [ecsim explore --impl paxos] finds it (seed 42, default budget): plan
    105 shrinks to [partition left=0,2,3 from=23 until=38], which holds
    back p1's requests until the heal, and p1#2 is delivered before its
    dependency p1#1 ("causal-order: dep p1#1 after p1#2...").

    Each step costs what is new (DESIGN.md §20): the chosen ids are kept
    as slots are chosen, and a slot's votes, its batch's pending requests
    and, once delivered, the slot itself are dropped.  Each request, vote
    and delivery costs O(1) (DESIGN.md §25): the id sets are per-origin
    bitsets ({!Id_bits}), a ballot's votes a list of distinct voters, and
    the slot tables are keyed by int with the identity hash.  A voter
    counts once per ballot, however often its [Accepted] arrives. *)

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
