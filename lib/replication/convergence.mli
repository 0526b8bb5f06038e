(** Convergence analysis of replicated-service runs (experiment E9):
    divergence windows, convergence times and visible rollbacks, computed
    from the {!Replica.Applied} output history. *)

open Simulator
open Simulator.Types

type run

val run_of_trace : Failures.pattern -> Trace.t -> run

val converged : run -> bool
(** All correct replicas end the run in the same state. *)

val convergence_time : run -> time
(** Earliest time from which all correct replicas always agree;
    [horizon + 1] if they never do. *)

val divergence_ticks : ?from_time:time -> run -> int
(** Ticks during which some pair of correct replicas disagreed. *)

val total_rollbacks : run -> int
