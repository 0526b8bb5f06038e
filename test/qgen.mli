(** Shared QCheck arbitraries and shrinkers over simulator and adversity
    domain values: failure-pattern crash lists, adversity plans and base
    delay-model bounds.

    The adversity generators are re-exports of the {!Harness.Builder}
    ones (their home since the builder refactor); the simulator-level
    generators stay local.

    Plans generated here are deliberately NOT fairness-clamped (unlike
    [Harness.Builder.plan_at]): safety properties must hold under any
    plan whatsoever, so these generators cover the whole space.  They are
    [Adversity.make]-normalized, so generated plans equal their own
    text-form roundtrip.  Shrinkers are structural — drop whole elements,
    then substitute the strictly weaker variants of
    [Harness.Adversity.weaken]. *)

open Harness

(** {1 Failure patterns, as crash lists} *)

(** Up to [max_faulty] crashes among processes [1..n-1] (process 0 always
    stays correct), at arbitrary times within the horizon.  Duplicate
    processes are fine: {!pattern_of_crashes} keeps the earliest time. *)
val crash_list_gen :
  n:int -> max_faulty:int -> horizon:int -> (int * int) list QCheck.Gen.t

val crash_list_arb :
  n:int -> max_faulty:int -> horizon:int -> (int * int) list QCheck.arbitrary

val pattern_of_crashes : n:int -> (int * int) list -> Simulator.Failures.pattern

(** {1 Adversity plans} *)

(** A nonempty proper subset of [0..n-1]. *)
val subset_gen : int -> int list QCheck.Gen.t

(** A window [(from_time, until_time)] with [from_time < until_time], both
    within the deadline. *)
val window_gen : int -> (int * int) QCheck.Gen.t

(** One unclamped crash-stop-era adversity spec: crashes, buffering
    partitions, delay spikes, drops, duplication, omega flapping. *)
val spec_gen : n:int -> deadline:int -> Adversity.spec QCheck.Gen.t

val plan_gen : n:int -> deadline:int -> Adversity.spec list QCheck.Gen.t

(** Structural shrinker: the strictly weaker variants of
    [Adversity.weaken]. *)
val spec_shrink : Adversity.spec -> Adversity.spec QCheck.Iter.t

val plan_arb : n:int -> deadline:int -> Adversity.spec list QCheck.arbitrary

(** {1 Recovery plans: downtime windows and disk faults} *)

val recovery_spec_gen : n:int -> deadline:int -> Adversity.spec QCheck.Gen.t

(** At least one recovery-flavoured spec, mixed with unclamped crash-stop
    specs of {!spec_gen}. *)
val recovery_plan_gen :
  n:int -> deadline:int -> Adversity.spec list QCheck.Gen.t

val recovery_plan_arb :
  n:int -> deadline:int -> Adversity.spec list QCheck.arbitrary

(** {1 Message-losing partition schedules} *)

val partition_loss_spec_gen :
  n:int -> deadline:int -> Adversity.spec QCheck.Gen.t

(** Loss schedules composed with crash-recovery plans and a sprinkle of
    generic unclamped adversity: the causal-order QCheck property of
    test_partition.ml runs over exactly this space. *)
val partition_recovery_plan_gen :
  n:int -> deadline:int -> Adversity.spec list QCheck.Gen.t

val partition_recovery_plan_arb :
  n:int -> deadline:int -> Adversity.spec list QCheck.arbitrary

(** {1 Base delay-model bounds (Net.uniform parameters)} *)

val delay_bounds_gen : (int * int) QCheck.Gen.t
val delay_bounds_arb : (int * int) QCheck.arbitrary

(** {1 Binary trace records and WAL payloads} *)

(** Strings over the whole byte range (JSON metacharacters, control
    characters, NUL, high bytes), up to 24 bytes. *)
val frame_string_gen : string QCheck.Gen.t

(** One [Persist.Frame] trace event, any constructor, with fields wide
    enough to reach multi-byte varint encodings. *)
val frame_event_gen : Persist.Frame.event QCheck.Gen.t

val frame_events_gen : Persist.Frame.event list QCheck.Gen.t
val frame_events_arb : Persist.Frame.event list QCheck.arbitrary

(** WAL payloads over arbitrary bytes, in the size range protocols
    actually log (0-60 bytes; the empty record's frame tears and corrupts
    visibly, so it is drawn too). *)
val wal_payload_gen : string QCheck.Gen.t

val wal_payloads_gen : string list QCheck.Gen.t
val wal_payloads_arb : string list QCheck.arbitrary

(** {1 Service-layer client populations}

    Re-exports of [Harness.Service_spec]'s generators: always-valid specs
    over the small ranges the smoke gate exercises — the same space
    [ecsim service --smoke] samples. *)

val service_arrival_gen : Harness.Service_spec.arrival QCheck.Gen.t
val service_spec_gen : Harness.Service_spec.t QCheck.Gen.t
val service_spec_arb : Harness.Service_spec.t QCheck.arbitrary
