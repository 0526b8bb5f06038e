(** Run a closed-loop client population (per {!Harness.Service_spec}) against
    a replicated-service stack, all inside one deterministic engine run.

    Replicas occupy processes [0, r) and clients [r, r + clients); the
    replica-group protocols run behind a shimmed ctx (group-local [n] and
    [broadcast]) so quorums ignore the client processes.  Partition and
    fault schedules apply to the replica fabric only — observed
    unavailability is the protocol's, not the routing's.  Replicas serve a
    Kv machine behind the {!Replication.Dedup} filter; the outcome carries
    the replayed dedup cross-check ("zero duplicate applies"). *)

open Simulator
open Simulator.Types
open Replication

module Dkv : sig
  include Machines.MACHINE

  val inner : state -> Machines.Kv.state
  val suppressed : state -> int
end
(** The served machine: Kv behind first-occurrence dedup. *)

type outcome = {
  trace : Trace.t;
  digest : string;  (** md5 of the printed trace — the determinism digest *)
  report : Metrics.t;
  replicas : int;
  horizon : time;
  dedup_ok : bool;
      (** every replica's machine state equals a replay of its raw log
          through {!Replication.Dedup.filter}, with matching suppression
          counts *)
  duplicates_delivered : int;  (** duplicate deliveries across replica logs *)
  suppressed : int;  (** duplicates the machines dropped at apply time *)
}

val run :
  setup:Harness.Stacks.setup ->
  spec:Harness.Service_spec.t ->
  impl:Harness.Stacks.etob_impl ->
  outcome
(** [setup.n] is the replica count.  Raises [Invalid_argument] on an
    invalid spec or on [Algorithm_1_over_4] (no committed prefix to serve
    strong reads from). *)

val run_builder : Harness.Builder.t -> (outcome, string) result
(** Interpret a parsed spec file: needs a [service ...] line and a
    [stack etob ...] over Algorithm 5 or the Paxos baseline. *)
