(** Experiment E22: measured availability under faults (EXPERIMENTS.md).

    One crash+partition schedule, run over Algorithm 5 (with the
    committed/speculative split to degrade across) and over the Paxos
    baseline, plus a replay of the first run.  Its {!Harness.Record}
    gates: a strict minority-partition availability gap in ETOB's favour
    (both sides started requests there), bounded retry amplification and
    attempts, zero duplicate applies through the dedup machine on either
    side, and a byte-identical replay digest.  Shared by [bench E22] and
    [ecsim service], which write the same record. *)

type side = {
  s_name : string;
  s_outcome : Runner.outcome;
  s_minority : int * int;  (** (started, ok) in the partition probe window *)
}

type t = {
  etob : side;
  paxos : side;
  record : Harness.Record.t;  (** BENCH_service.json: both sides and the gates *)
}

val spec : Harness.Service_spec.t
(** The client population both sides run. *)

val setup : seed:int -> Harness.Stacks.setup
(** Five replicas, lossy partition isolating {3,4} for [60, 180), majority
    replica 1 crashing at 200, blockwise oracle Omega. *)

val minority : Simulator.Types.proc_id list

val run : ?seed:int -> unit -> t

val histogram : side -> Harness.Record.json
(** Raw successful-request latencies — the CI latency-histogram artifact. *)

val sample_specs : seed:int -> count:int -> Harness.Service_spec.t list
(** Deterministic QCheck samples of {!Harness.Service_spec.gen}, shared by
    the smoke gate and the generator tests. *)
