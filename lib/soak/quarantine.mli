(** Turning a bad run into a replayable, minimal finding.

    A violating (or crashing) run is quarantined rather than fatal: its
    plan is greedily shrunk ({!Harness.Builder.shrink}), the shrunk
    repro is re-run to verify it still violates, and a self-contained
    [.spec] artifact is written so the finding replays with
    [ecsim --replay] long after the campaign is gone.  Every step
    degrades instead of raising: a shrinker crash keeps the original
    plan, a failed artifact write keeps the journal entry. *)

val quarantine :
  artifacts:string ->
  target:Harness.Builder.t ->
  job:int ->
  seed:int ->
  plan:Harness.Adversity.t ->
  violations:string list ->
  digest:string ->
  Journal.entry
(** Always returns a [Journal.Finding].  [shrunk_ok] records whether the
    shrunk plan still violates on replay — the CI gate hard-fails on
    quarantined-but-unshrinkable findings, because a finding that cannot
    be reproduced from its own repro is worse than a test failure. *)
