(** Declarative test builder: one immutable value that composes a protocol
    {!stack}, a {!workload}, an {!Adversity.t} plan, a detector source,
    {!checker} policies and a search budget — and one interpreter, {!run},
    which wires the stack through {!Stacks}.  Exploration generates and
    shrinks plans for a {!template} builder, and the [ecsim] subcommands
    decode their flags (or a [--spec FILE]) into one.  The builder
    describes only the runs something drives through it: the ETOB stacks
    that exploration, soak, the CLI and the perf ledger run, and the
    gossip baseline.  Everything else (the EC-family transformations,
    commit indications, hand-built failure patterns, raw engine inputs,
    protocol handles) is hand-wired with {!Stacks} directly.

    Builders without escape hatches (a [sink], a [trace_out] file, a
    config record) have a stable text form ({!to_lines}/{!of_lines}), the
    one format findings are written in; running a builder through {!run}
    is byte-identical to the hand-wired paths (enforced by the
    differential tests in [test/test_builder.ml]). *)

open Simulator
open Simulator.Types
open Ec_core

(** Base delay model, as data (a {!Simulator.Net.model} consumes
    randomness differently per constructor, so the distinction must
    survive serialization byte-exactly). *)
type delay_model = Constant of int | Uniform of { min_d : int; max_d : int }

(** The base scenario. *)
type base = {
  n : int;
  seed : int;
  deadline : time;
  timer_period : int;
  delay : delay_model;
}

(** Which protocol stack the run drives, through its [Stacks.run_*]
    entry point. *)
type stack =
  | Etob of Stacks.etob_impl  (** bare ETOB: Algorithm 5 / Paxos / 1-over-4 *)
  | Etob_ae  (** Algorithm 5 + anti-entropy digest exchange *)
  | Recoverable of { ae : bool }
      (** Algorithm 5 under the crash-recovery wrapper, optionally with
          anti-entropy *)
  | Gossip  (** the leaderless negative baseline *)

(** The workload: what gets posted, by whom, when. *)
type workload =
  | No_posts
  | Posts of { count : int; from_time : time; every : int }
      (** round-robin {!Stacks.spread_posts} *)
  | Auto_posts of { count : int; stretch : bool }
      (** exploration's posting policy: from tick 8, every 3 ticks
          (stretched across the horizon for recovery targets so restarted
          processes post again) *)

(** Convergence-tau policy of the ETOB checker: a fixed bound, or the
    plan-aware bound ({!tau_bound}). *)
type tau_policy = Tau_auto | Tau_fixed of int

type watchdog_policy = Wd_auto | Wd_fixed of { settle : time; bound : int }

(** Checkers evaluated by {!run}, in order; their messages concatenate
    into the outcome's [violations]. *)
type checker = Etob_spec of tau_policy | Watchdog of watchdog_policy

(** On-disk trace formats: jsonl ([Sink.jsonl], one JSON object per line)
    or the framed binary codec ([Sink.binary] over [Persist.Frame]). *)
type trace_format = Jsonl | Binary

type t = {
  base : base;
  stack : stack;
  workload : workload;
  plan : Adversity.t;
  omega : Stacks.omega_source option;
      (** [None] = the base's detector (oracle stable from 0 unless the
          plan flaps it) *)
  checkers : checker list;
  budget : int option;  (** exploration budget hint, carried by spec files *)
  mutation : Etob_omega.mutation option;
  rmutation : Recoverable.mutation option;
  ae_mutation : Anti_entropy.mutation option;
  (* Escape hatches: all [None] for serializable builders.  Nothing sets
     [rconfig], [ae_config] or [commits]; they stay because [bench/perf]
     reads them. *)
  rconfig : Recoverable.config option;
  ae_config : Anti_entropy.config option;
  commits : bool option;  (** Recoverable commit-prefix toggle *)
  sink : Sink.t option;
  trace_out : (string * trace_format) option;
      (** stream the run's events to a trace file (path, format); the
          outcome still carries the full trace (a capturing recorder is
          teed in), so checkers and digests are unaffected *)
  service : Service_spec.t option;
      (** closed-loop client population riding this stack — carried and
          serialized here (one [service ...] spec line), interpreted by
          [lib/service]; {!run} itself ignores it *)
}

val create :
  ?seed:int ->
  ?timer_period:int ->
  ?delay:delay_model ->
  n:int -> deadline:time -> stack -> t
(** A declarative builder over {!Stacks.default}'s conventions: seed 42,
    timer period 2, constant unit delays, no workload, no plan, no
    checkers. *)

(** {2 Derived values and policies}

    Exploration's fairness and bound formulas, keyed on the builder. *)

val stack_name : stack -> string
(** The stack's stable spec-file name (["alg5"], ["recoverable+ae"], ...). *)

val inputs : t -> (time * proc_id * Io.input) list
(** Materialize the workload as engine inputs. *)

val tau_bound : t -> time
(** The plan-aware convergence bound ({!Tau_auto}): [0] for Algorithm-5
    stacks under a never-flapping oracle and a recovery-free plan;
    otherwise settle + slack (+ retransmission backoff under recovery,
    + anti-entropy catch-up when partition loss meets the digest layer). *)

val watchdog_settle : t -> time
val watchdog_bound : t -> int

val setup_of : t -> Stacks.setup
(** The engine setup this builder denotes: base, then the [omega]/[sink]
    clauses, then the plan ({!Adversity.apply}). *)

(** {2 Running} *)

type outcome = {
  builder : t;
  trace : Trace.t option;  (** [None] iff the run raised under [~catch] *)
  report : Properties.etob_report option;
      (** computed iff the builder has checkers and the run completed *)
  violations : string list;  (** [[]] = clean *)
  digest : string;  (** trace digest (hex) iff [~digest]; [""] otherwise *)
}

val run : ?digest:bool -> ?catch:bool -> ?guard:(unit -> unit) -> t -> outcome
(** Interpret the builder: build the setup, materialize the workload, run
    the stack, evaluate the checkers in order.  Deterministic: equal
    builders give byte-identical runs.  [digest] (default false) records
    the trace digest; [catch] (default false) turns a raising run into an
    ["exception: ..."] violation instead of propagating.  A [sink] or
    [trace_out] on the builder observes the run (after the capturing
    recorder) without changing the outcome.  [guard] is
    called once per engine-observable event ({!Sink.on_every}), before
    any recording — a soak watchdog raises from it to abort a wedged run
    (event budget, wall-clock deadline); the guard never changes what a
    completing run computes (trace, report, digest are unaffected).
    Under [catch] a raising guard is folded into an ["exception: ..."]
    violation like any other; run with [catch:false] to pattern-match
    the guard's own exception (the soak runner does, to tell a stuck
    run from a crashing one). *)

(** {2 Exploration templates and plan generation}

    An exploration target is a builder used as a {e template}: it fixes
    everything but the adversity plan and the engine seed, which
    exploration draws per plan index.  Generation is clamped so a faithful
    stack can always recover before the horizon (drop windows close before
    the final re-gossip round, spike tails fit the deadline, crash counts
    stay admitted by the environment): a flagged run is a real finding,
    not an artifact of an unfair plan. *)

val template :
  ?n:int ->
  ?deadline:time ->
  ?posts:int ->
  ?delay:delay_model ->
  ?recovery:bool ->
  ?ae:bool ->
  ?watchdog:bool ->
  Stacks.etob_impl -> t
(** The standard template: n=4, deadline 240, 12 {!Auto_posts} (stretched
    under [recovery]), uniform delays in [1,3], the plan-aware ETOB
    checker plus the {!Watchdog} under [watchdog].  Algorithm 5 runs under
    {!Recoverable} with [recovery] and with the anti-entropy layer with
    [ae]; the other implementations run bare.  Seed mutations by record
    update. *)

val with_plan : ?seed:int -> t -> Adversity.t -> t
(** The template's builder for one plan (and engine [seed], if given).
    The per-plan stack rule: Algorithm 5 runs as {!Recoverable} when the
    plan holds downtime windows or disk faults. *)

val explorable : t -> (t, string) result
(** Accept a builder (read from a spec) as a template — exploration
    replaces its plan and seed per plan index — or reject it with an
    error naming the clause the generator cannot be fair to: the
    [gossip] stack (the one non-ETOB stack), a workload other than
    [auto], an [omega] or a [service] clause. *)

val plan_at : t -> seed:int -> max_adversities:int -> int -> Adversity.t
(** Plan [i] of exploring template [t] from [seed]: index 0 is always the
    empty plan, later plans are drawn from an index-derived rng (so they
    are regenerable from their index alone) and sanitized: the crash
    count stays admitted by the environment, at most one flap survives,
    windows and permanent crashes never share a process, recovery
    adversities only reach Algorithm 5.  Plan [i] runs under engine seed
    [seed + i]. *)

(** {2 Exploration and shrinking} *)

type exploration = { found : outcome option; plans_run : int }

val explore :
  ?domains:int ->
  t -> seed:int -> budget:int -> max_adversities:int -> exploration
(** Run plans [0 .. budget-1] of template [t] ({!plan_at}, each through
    {!with_plan} under engine seed [seed + i]) until the first
    violation, in chunks of [4 * domains] fanned over OCaml domains via
    {!Sweep.map_safe}.  The reported finding is the lowest-index
    violation and [plans_run] is its index + 1 ([budget] when clean),
    whatever the domain count.  Runs use [~digest:true ~catch:true]. *)

val shrink : t -> outcome -> outcome
(** Greedy minimization of a finding of template [t]: drop whole
    adversities, then substitute {!Adversity.weaken} variants, re-running
    [with_plan t] under the finding's engine seed at every step (so
    dropping the last downtime window demotes a recoverable run to
    crash-stop).  The result still violates. *)

(** {2 Stable text form} *)

val header : string
(** ["ecsim-spec v1"]. *)

val to_lines : ?digest:string -> ?violations:string list -> t -> string list
(** Serialize a builder (raises [Invalid_argument] on any escape hatch).
    [digest] and [violations] are recorded for humans and
    {!recorded_digest}; {!of_lines} ignores them otherwise. *)

val to_string : ?digest:string -> ?violations:string list -> t -> string

val of_lines : string list -> (t, string) result
(** Parse spec text; every error names the offending line, including a
    bare token, an unknown or repeated key ({!Adversity.kv_fields}).
    Plans are normalized ({!Adversity.make}). *)

val of_string : string -> (t, string) result

val validate : t -> (t, string) result
(** The value bounds {!of_lines} checks, for a builder assembled in code
    (from command-line flags, say): [Error] names the clause as spec text
    writes it and why its value is out of range.  Raises
    [Invalid_argument] on an escape hatch, as {!to_lines} does. *)

val recorded_digest : string -> string option
(** The [digest] line of a spec string, if present. *)

val replay : string -> (outcome, string) result
(** The replay verdict for a recorded finding: parse its spec text, run
    it, and require the recorded digest (when one is recorded) and a
    violation (when one is recorded). *)

val finding_text : outcome -> string
(** The outcome's builder as spec text recording its digest and
    violations: the finding format {!replay} verifies. *)

val write : string -> ?digest:string -> ?violations:string list -> t -> unit
val read : string -> (t, string) result

(** {2 Binary trace artifacts}

    A [.trace.bin] artifact written through [trace_out] plus
    {!append_binary_spec} is a self-contained replay unit: the framed
    event stream followed by a spec record carrying the run's spec text
    (digest and violations included). *)

val append_binary_spec :
  string -> ?digest:string -> ?violations:string list -> t -> unit
(** Append one spec record with {!to_string}'s text to an existing binary
    trace file.  Raises [Invalid_argument] like {!to_lines} if the
    builder is not serializable. *)

val write_finding : string -> outcome -> unit
(** Write a finding: {!finding_text}, or for a [.bin] path a binary trace
    artifact (the finding re-run with [trace_out], then its spec record
    appended). *)

val binary_spec : string -> (string, string) result
(** Read a binary trace file and return its embedded spec text (the last
    spec record), ready for {!of_string} / {!recorded_digest}. *)

(** {2 QCheck generators}

    The unclamped adversity generators formerly hand-rolled in
    [test/qgen] (which now re-exports these), plus a generator of whole
    declarative builders.  Plans are {!Adversity.make}-normalized, so the
    roundtrip property [of_lines (to_lines b) = b] holds structurally. *)

val subset_gen : int -> proc_id list QCheck.Gen.t
val window_gen : int -> (time * time) QCheck.Gen.t
val spec_gen : n:int -> deadline:int -> Adversity.spec QCheck.Gen.t
val plan_gen : n:int -> deadline:int -> Adversity.t QCheck.Gen.t
val spec_shrink : Adversity.spec -> Adversity.spec QCheck.Iter.t
val plan_arb : n:int -> deadline:int -> Adversity.t QCheck.arbitrary
val recovery_spec_gen : n:int -> deadline:int -> Adversity.spec QCheck.Gen.t
val recovery_plan_gen : n:int -> deadline:int -> Adversity.t QCheck.Gen.t
val recovery_plan_arb : n:int -> deadline:int -> Adversity.t QCheck.arbitrary

val partition_loss_spec_gen :
  n:int -> deadline:int -> Adversity.spec QCheck.Gen.t

val partition_recovery_plan_gen :
  n:int -> deadline:int -> Adversity.t QCheck.Gen.t

val partition_recovery_plan_arb :
  n:int -> deadline:int -> Adversity.t QCheck.arbitrary

val arbitrary : t QCheck.arbitrary
(** Serializable declarative builders (every stack, every workload,
    normalized plans, policy checkers); shrinks by shrinking the plan. *)
