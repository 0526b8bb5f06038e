(** The quorum failure detector Sigma.

    Sigma outputs a set of processes at each process such that any two sets
    output at any times intersect, and eventually every set output at a
    correct process contains only correct processes.  Per the paper, Sigma
    is exactly the computational gap between strong and eventual
    consistency.

    Under crash-recovery patterns, correct means eventually up forever
    (see {!Failures}): a process inside a downtime window may legally
    appear in output quorums — quorum members need not be up, only
    eventually-correct. *)

open Simulator
open Simulator.Types

type t

val make : Failures.pattern -> stabilize_at:time -> t
(** Raises [Invalid_argument] if the pattern has no correct process. *)

val query : t -> self:proc_id -> now:time -> proc_id list
(** The quorum output at [self] at time [now]; sorted, duplicate-free. *)
