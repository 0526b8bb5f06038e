(** Convergence-progress liveness watchdog.

    Safety checkers cannot tell "converged" from "quietly stalled": a
    replica left permanently behind by a lossy partition (or an
    anti-entropy bug such as {!Ec_core.Anti_entropy.mutation}) yields a
    run with pristine safety and no convergence.  The watchdog flags
    exactly that: once the environment has settled (failures stabilized,
    partitions healed, workload posted — the caller's [settle]) a correct
    stack must reach the converged state within [bound] ticks (gossip
    slack + anti-entropy rounds + retransmission backoff, computed by the
    caller), or the run is a liveness violation with a per-process
    diagnosis of who stalled where. *)

open Simulator.Types
open Ec_core

type laggard = {
  proc : proc_id;
  last_progress : time;
      (** time of the last d-revision that grew this process's
          delivered-message set; [-1] if none ever did *)
  missing : int;  (** target messages absent from its final d *)
}

type verdict =
  | Converged of { at : time }
      (** every correct process stably covered the target by [at] *)
  | Stalled of { deadline : time; laggards : laggard list }

val check : settle:time -> bound:int -> Properties.seq_history -> verdict
(** A process reaches the target at its first d-revision from which its
    id-set covers the target for the rest of the run; every correct
    process must reach it by [settle + bound]. *)

val violations : verdict -> string list
(** Violation lines in the checkers' format; empty iff converged. *)

val pp : Format.formatter -> verdict -> unit
