(** Campaign configuration and the pure state machine over journal
    entries.

    A campaign is [legs × budget] jobs: leg [k]'s job [j] (global index
    [k * budget + j]) runs plan [j] of that leg's exploration template
    under engine seed [seed + j] — exactly [Harness.Builder.explore]'s
    plan/seed pairing, so a soak finding replays like any exploration
    finding.

    {!apply} is the {e only} way campaign state advances, both live (the
    runner applies each entry as it journals it) and on resume (fold
    {!apply} over the decoded journal) — resume-equivalence holds by
    construction rather than by parallel bookkeeping. *)

type leg = { name : string; target : Harness.Builder.t }
(** A named exploration template ({!Harness.Builder.template}). *)

type config = {
  legs : leg list;
  budget : int;
  seed : int;
  max_adversities : int;
  event_budget : int;
  deadline_ms : int;
  max_findings : int;
  max_poisoned : int;
  artifacts : string;
}

val default_config : ?artifacts:string -> leg list -> config
(** Budget 200/leg, seed 1, 4 adversities, 200k events, 10 s per run,
    16 findings, 8 poisoned seeds. *)

val leg_of_name : string -> (leg, string) result

val config_entry : config -> Journal.entry
(** The [Config] journal entry (first record of every campaign). *)

val config_of_journal : Journal.config -> (config, string) result
(** Rebuild a runnable config from a journaled one, resolving leg names
    through {!leg_of_name} — the [--resume FILE] path. *)

val check_config : config -> Journal.config -> (unit, string) result
(** Validate that a journaled config matches [config] (legs, budget,
    seed, adversities — everything digest-relevant).  The API-resume
    path for campaigns whose legs are not in the catalogue. *)

(** {2 Job geometry} *)

val total_jobs : config -> int
val leg_of_job : config -> int -> leg
val engine_seed : config -> int -> int
val plan_of_job : config -> int -> Harness.Adversity.t

(** {2 State} *)

(** What recorded a job. *)
type recorded =
  | Unrecorded
  | Clean_run  (** a [Run] entry *)
  | Found of Journal.entry  (** its [Finding] entry *)
  | Sacrificed  (** a [Poisoned] entry *)

type state = {
  jobs : recorded array;  (** indexed by job *)
  clean : int;
  findings : Journal.entry list;  (** [Finding] entries, reverse order *)
  unshrunk : int;  (** findings whose shrunk repro failed to replay *)
  poisoned : int;
  streak : int;  (** consecutive poisoned jobs (ladder trigger) *)
  halvings : int;  (** degradation rungs taken *)
  aborted : string option;  (** [Some reason] once the ladder hit abort *)
  digest_lines : string list;  (** canonical digest lines, reverse order *)
}

val initial : config -> state
val apply : state -> Journal.entry -> state

val replay : config -> Journal.entry list -> state
(** Fold {!apply} over a decoded journal (skipping the [Config] head). *)

val pending : config -> state -> int list
(** Unrecorded jobs, ascending. *)

val coverage_digest : state -> string
(** MD5 (hex) over the sorted canonical digest lines: byte-identical
    between an interrupted-and-resumed campaign and an uninterrupted
    one. *)

val finding_list : state -> Journal.entry list
(** [Finding] entries in job order. *)
