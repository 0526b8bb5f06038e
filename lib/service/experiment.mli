(** Experiment E22: measured availability under faults (EXPERIMENTS.md).

    One crash+partition schedule, run over Algorithm 5 (with the
    committed/speculative split to degrade across) and over the Paxos
    baseline, plus a replay of the first run.  Four gates: a strict
    minority-partition availability gap in ETOB's favour, bounded retry
    amplification, zero duplicate applies through the dedup machine, and a
    byte-identical replay digest.  Shared by [bench E22] and
    [ecsim service]; this module only computes and renders JSON — callers
    write the files. *)

type side = {
  s_name : string;
  s_outcome : Runner.outcome;
  s_minority : int * int;  (** (started, ok) in the partition probe window *)
}

type gate = { g_name : string; g_pass : bool; g_detail : string }

type t = {
  etob : side;
  paxos : side;
  gates : gate list;
  pass : bool;
  gc_minor_words : float;  (** minor-heap words allocated across the runs *)
  gc_major_words : float;  (** major-heap words promoted/allocated *)
}

val spec : Harness.Service_spec.t
(** The client population both sides run. *)

val setup : seed:int -> Harness.Stacks.setup
(** Five replicas, lossy partition isolating {3,4} for [60, 180), majority
    replica 1 crashing at 200, blockwise oracle Omega. *)

val minority : Simulator.Types.proc_id list

val run : ?seed:int -> unit -> t

val to_json : t -> string
(** The BENCH_service.json payload. *)

val histogram_json : side -> string
(** Raw successful-request latencies — the CI latency-histogram artifact. *)

val sample_specs : seed:int -> count:int -> Harness.Service_spec.t list
(** Deterministic QCheck samples of {!Harness.Service_spec.gen}, shared by
    the smoke gate and the generator tests. *)
