(** The CHT communication task (Appendix B.2, Figure 1) as a real protocol:
    every process samples its detector on each local timeout, grows its
    local DAG, and gossips it; local DAGs of correct processes converge. *)

open Simulator
open Simulator.Types

type vkey = proc_id * int
(** Global vertex identity: (creator, k-th query). *)

type graph
type Msg.payload += Dag_gossip of graph

type t

val create :
  Engine.ctx -> sample:(unit -> Fd_value.t) -> t * Engine.node
(** [sample] is the process's local failure-detector module. *)

val size : t -> int
(** Vertices currently in the local DAG. *)

val export : t -> pattern:Failures.pattern -> Dag.t
(** The local DAG [G_p(t)] in the form the simulation tree and extraction
    consume (explicit edges). *)

val check_same_creator_order : t -> bool
(** Appendix B.2, property (2). *)

val check_transitive : t -> bool
(** Appendix B.2, property (3); O(V^3), for tests. *)

val agrees_with : t -> t -> bool
(** Two local DAGs agree on values and predecessor sets of their common
    vertices (convergence, B.5). *)
