(** The campaign loop: guarded runs, chunked domain fan-out, the
    degradation ladder, and crash-safe journaling.

    Every job runs under a {e guard} called once per engine-observable
    event ([Builder.run ?guard]): the guard raises {!Stuck} when the
    run exceeds the campaign's event budget or its monotonic wall-clock
    deadline ({!Harness.Clock}) — the only way a wedged run (infinite
    promotion loop, event storm) ends.  A stuck run poisons its seed; a
    violating or crashing run is quarantined and shrunk
    ({!Quarantine}); a clean run records its trace digest.  Entries are
    journaled in job order with a flush per record, so killing the
    process at any instant loses at most the in-flight chunk.

    Degradation ladder, in order: two consecutive poisoned jobs halve
    the domain count (repeatable down to 1); poisoned seeds are never
    retried (their cost is the logged coverage sacrifice); when the
    sacrifice budget [max_poisoned] is exhausted the campaign aborts
    with a journaled [Degrade {domains = 0}] mark. *)

exception Stuck of string
(** Raised by the guard inside a wedged run. *)

type attempt =
  | Finished of Harness.Builder.outcome
  | Wedged of string  (** guard verdict: why the run was declared stuck *)

type exec =
  guard:(unit -> unit) ->
  Harness.Builder.t ->
  seed:int ->
  Harness.Adversity.t ->
  attempt
(** How one job is executed: the leg's template, the job's engine seed
    and plan.  {!default_exec} interprets the builder; tests inject
    wedged or crashing executors to exercise the ladder
    deterministically. *)

val default_exec : exec
(** [Builder.run ~digest:true ~guard] on [Builder.with_plan ~seed
    template plan], with exceptions split: {!Stuck}
    becomes [Wedged], any other exception becomes a [Finished] outcome
    with an ["exception: ..."] violation (a finding, not an infra
    error). *)

type outcome = {
  config : Campaign.config;
      (** what the campaign ran under; for {!resume}, decoded from the
          journal *)
  state : Campaign.state;  (** final campaign state *)
  journal : string;  (** the journal path it was written to *)
}

val start :
  ?domains:int ->
  ?clock:Harness.Clock.t ->
  ?exec:exec ->
  ?stop_after:int ->
  ?on_progress:(done_:int -> total:int -> unit) ->
  journal:string ->
  Campaign.config ->
  (outcome, string) result
(** Run a fresh campaign, creating [journal] (its first record is the
    config).  [domains] defaults to {!Harness.Sweep.default_domains};
    [clock] defaults to {!Harness.Clock.monotonic} (tests pass a manual
    clock); [stop_after] processes at most that many jobs then returns
    early — the deterministic stand-in for SIGKILL in resume tests. *)

val resume_with :
  ?domains:int ->
  ?clock:Harness.Clock.t ->
  ?exec:exec ->
  ?stop_after:int ->
  ?on_progress:(done_:int -> total:int -> unit) ->
  journal:string ->
  Campaign.config ->
  (outcome, string) result
(** Resume from an existing journal with an explicitly supplied config
    (validated against the journaled one — digest-relevant fields must
    match).  Tolerates a torn journal tail: the clean prefix is
    compacted ([Persist.Journal.resume]) and the campaign continues
    from exactly the recorded jobs.  Works with legs outside the
    catalogue (tests with mutant targets). *)

val resume :
  ?domains:int ->
  ?clock:Harness.Clock.t ->
  ?on_progress:(done_:int -> total:int -> unit) ->
  journal:string ->
  unit ->
  (outcome, string) result
(** The [--resume FILE] path: the config is read from the journal
    itself, legs resolved by name ({!Campaign.leg_of_name}). *)
