(** Adversity plans: first-class, composable descriptions of everything the
    explorer may do to a run beyond the base scenario.  A plan is plain
    data; {!apply} folds it into any {!Stacks.setup}, and the stable text
    form ({!to_lines}/{!of_lines}) is what repro and builder-spec files
    embed, so the same value drives exploration, shrinking and replay.
    {!make} is the normalizing smart constructor (flap dedupe, canonical
    spec order); it never changes what {!apply} builds. *)

open Simulator.Types

type spec =
  | Crash of { proc : proc_id; at : time }
  | Partition of { left : proc_id list; from_time : time; until_time : time }
      (** [left] vs everyone else; cross-block messages are delayed until
          the partition heals at [until_time] (nothing is lost). *)
  | Lossy_partition of {
      left : proc_id list;
      from_time : time;
      until_time : time;
    }
      (** Like [Partition], but cross-block sends in the window are
          {e dropped}, not buffered ({!Simulator.Net.lossy_partition}):
          recovering the lost traffic is the protocol's problem (re-gossip
          or {!Ec_core.Anti_entropy}). *)
  | Oneway_partition of {
      left : proc_id list;
      from_time : time;
      until_time : time;
    }
      (** Asymmetric link failure: sends from [left] to the rest are
          dropped while the reverse direction flows
          ({!Simulator.Net.oneway_partition}). *)
  | Flapping_partition of {
      left : proc_id list;
      from_time : time;
      until_time : time;
      period : int;
    }
      (** Lossy partition flapping over the window: cut for [period] ticks,
          healed for [period], repeating
          ({!Simulator.Net.flapping_partition}). *)
  | Delay_spike of {
      link : (proc_id * proc_id) option;  (** [None] = every link *)
      from_time : time;
      until_time : time;
      factor : int;
    }
  | Drop of { from_time : time; until_time : time; pct : int }
      (** Drop each send in the window with probability [pct]%. *)
  | Duplicate of { from_time : time; until_time : time; copies : int }
      (** Deliver [copies] extra copies with independent delays. *)
  | Omega_flap of { until_time : time; period : int }
      (** The oracle rotates its leader with [period] until [until_time],
          then stabilizes (only meaningful for oracle setups). *)
  | Crash_recover of { proc : proc_id; at : time; recover_at : time }
      (** A downtime window: [proc] loses its volatile state at [at] and is
          restarted at [recover_at] (see {!Simulator.Failures.crash_recover_at}
          and the engine's restart hook).  Only meaningful for recoverable
          stacks; a non-recoverable process simply restarts empty. *)
  | Disk_fault of { proc : proc_id; kind : Persist.Store.fault }
      (** Damage the dirty tail of [proc]'s stable store at its next crash.
          [apply] ignores it (the setup carries no stores); runners arm it
          on their pool via {!arm_disk_faults}. *)

type t = spec list

val make : spec list -> t
(** Normalizing smart constructor: keeps only the last [Omega_flap]
    ("last wins" is enforced here rather than documented) and stable-sorts
    specs into a canonical rank order — crashes, then downtime windows,
    then disk faults, then delay-model wrappers, then fault windows, then
    the flap.  Kinds folding into the same setup field share a rank, so
    sort stability preserves their relative order and
    [apply (make plan) setup] builds byte-identically the same setup as
    [apply plan setup].  {!of_lines} normalizes; generators should too. *)

val size : t -> int
val has_flap : t -> bool

val has_recovery : t -> bool
(** The plan contains a downtime window or a disk fault, i.e. it needs the
    recoverable stack to be meaningful. *)

val has_partition_loss : t -> bool
(** The plan can silently lose messages (a lossy, one-way or flapping
    partition), so convergence needs post-heal re-gossip or anti-entropy. *)

val crash_procs : t -> proc_id list
val recover_procs : t -> proc_id list
val disk_faults : t -> (proc_id * Persist.Store.fault) list

val arm_disk_faults : t -> Persist.Store.t array -> unit
(** Arm the plan's disk faults on a store pool, in plan order (several
    faults against one process queue FIFO, one per crash). *)

val settle_time : base_max:int -> t -> time
(** The time from which the network and detector behave nominally again:
    every window closed, every delayed message flushed ([base_max] is the
    base model's largest delay).  Tau bounds are computed relative to
    this. *)

val apply : t -> Stacks.setup -> Stacks.setup
(** Fold the plan into a setup.  Delay spikes fold first, so they scale
    only the base delay (never a partition's hold-back).  Plan order is
    irrelevant: crashes commute, delay wrappers and fault windows compose;
    of several [Omega_flap]s the last wins ({!make} enforces at most
    one). *)

val weaken : spec -> spec list
(** Strictly weaker variants, strongest reduction first, for the shrinker.
    Weakening never moves an adversity later into the run, so its settle
    time only shrinks.  [[]] when the spec is atomic (e.g. a crash). *)

val pp_spec : Format.formatter -> spec -> unit
val pp : Format.formatter -> t -> unit

val to_line : spec -> string
(** One-line stable form, parsed back by {!of_line}. *)

val to_lines : t -> string list

val of_line : string -> (spec, string) result
(** Parse one spec line; [Error] names the offending field and quotes the
    line.  Does not normalize (repro files replay their plan verbatim). *)

val of_lines : string list -> (t, string) result
(** Parse a whole plan and {!make}-normalize it. *)
