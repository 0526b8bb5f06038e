(** Network delay models.

    The paper assumes reliable links in an asynchronous system: every
    message sent to a correct process is eventually received, with no bound
    on delay.  A delay model assigns every send a finite positive delay, so
    eventual delivery holds by construction; asynchrony and partitions are
    modelled as (finitely) large delays.

    Configurations carry a {!model}.  Stateless models are plain shared
    functions; stateful models ({!fifo}) are re-instantiated by the engine
    once per {!Engine.run}, so reusing one model value across a seed sweep
    — sequential or Domain-parallel — never leaks state between runs. *)

open Types

type delay_fn = src:proc_id -> dst:proc_id -> now:time -> rng:Rng.t -> int
(** Delay, in ticks, applied to a message sent now from [src] to [dst]. *)

type model
(** A delay model specification, as carried by run configurations. *)

val per_run : (unit -> delay_fn) -> model
(** A stateful custom model; the thunk runs once per [Engine.run]. *)

val instantiate : model -> delay_fn
(** Force a model for one run.  The engine calls this exactly once per run;
    call it yourself only to drive a model by hand (e.g. in tests). *)

val constant : int -> model
(** Every message takes exactly [d >= 1] ticks: one "communication step". *)

val uniform : min:int -> max:int -> model
(** Uniformly random delay in [\[min, max\]], [1 <= min <= max]. *)

type partition_spec = {
  blocks : proc_id list list;
  from_time : time;
  until_time : time;
}
(** A partition into [blocks] during [\[from_time, until_time)). *)

val partitioned : partition_spec -> base:model -> model
(** Cross-block messages sent during the partition are delivered only after
    it heals (plus their base delay); nothing is lost. *)

val repeating_windows :
  from_time:time -> until_time:time -> down:int -> up:int -> (time * time) list
(** The alternating schedule that starts down (cut) at [from_time] for
    [down] ticks, heals for [up] ticks, and repeats until [until_time]
    (the last window is clipped to it): the flapping-bridge shape of
    {!flapping_partition}'s lossy cuts. *)

val slow_links :
  ?only:(proc_id * proc_id) list ->
  from_time:time -> until_time:time -> factor:int -> model -> model
(** Inflate the delay of each message sent during
    [\[from_time, until_time)) by [factor] — an asynchrony burst — on the
    listed directed links ([only = None] affects every link). *)

val partial_synchrony : gst:time -> bound:int -> chaos_max:int -> model
(** Dwork–Lynch–Stockmeyer partial synchrony: chaotic delays up to
    [chaos_max] before the global stabilization time [gst], all delays
    within [bound] afterwards. *)

val fifo : base:model -> model
(** A stateful wrapper making each ordered link FIFO: no message overtakes
    an earlier one.  The paper's links are reliable but not FIFO; use this
    to isolate ordering-dependence in experiments.  The per-link clamp
    table is allocated afresh for every run, so the model value itself is
    safe to reuse and to share across sweep workers. *)

val delay_of :
  delay_fn -> src:proc_id -> dst:proc_id -> now:time -> rng:Rng.t -> int
(** Evaluate an instantiated model, clamping the result to at least 1
    tick. *)

(** {2 Link faults}

    Delay models preserve the paper's reliable links (everything arrives,
    possibly late).  Fault models deliberately step outside that model:
    they drop or duplicate individual sends.  They exist for adversarial
    exploration — windowed faults that heal before the horizon let the
    eventual properties recover while the safety properties must survive. *)

type fault = Deliver | Drop | Duplicate of int
(** The fate of one send: delivered normally, silently dropped, or
    delivered once plus [k >= 1] extra copies (independent delays). *)

type fault_fn = src:proc_id -> dst:proc_id -> now:time -> rng:Rng.t -> fault

type fault_model
(** A fault-injection specification, carried by run configurations. *)

val no_faults : fault_model
(** The default: no send is ever dropped or duplicated, and no randomness
    is consumed — runs are byte-identical to a fault-free engine. *)

val fault_of_fn : fault_fn -> fault_model
val fault_per_run : (unit -> fault_fn) -> fault_model

val instantiate_faults : fault_model -> fault_fn option
(** [None] exactly for {!no_faults}; the engine skips fault evaluation
    entirely in that case. *)

val drop_window :
  ?only:(proc_id * proc_id) list ->
  from_time:time -> until_time:time -> int -> fault_model
(** Drop each message sent during [\[from_time, until_time)) with
    probability [pct]% ([pct = 100] is deterministic and draws no
    randomness).  [only] restricts the fault to the listed directed
    links. *)

val duplicate_window :
  ?only:(proc_id * proc_id) list ->
  from_time:time -> until_time:time -> int -> fault_model
(** Deliver [copies >= 1] extra copies of each message sent during the
    window, each with an independently drawn delay. *)

val lossy_partition : partition_spec -> fault_model
(** A {e lossy} partition: every cross-block send inside the window is
    dropped — not buffered as {!partitioned} does.  Recovering the lost
    traffic is the protocol's problem (full-graph re-gossip, or the
    anti-entropy layer of [Ec_core.Anti_entropy]).  Deterministic; no
    randomness is consumed. *)

val oneway_partition :
  from_block:proc_id list -> from_time:time -> until_time:time -> fault_model
(** An asymmetric partition: during the window, sends {e from} a member of
    [from_block] to a process outside it are dropped, while the reverse
    direction still flows.  One-way links are the adversary under which
    timeout-based leader emulations misbehave (see
    [Detectors.Omega.module_of] docs). *)

val flapping_partition :
  blocks:proc_id list list ->
  from_time:time -> until_time:time -> period:int -> fault_model
(** A flapping lossy partition: cut for [period] ticks, healed for
    [period] ticks, repeating over the window
    ({!repeating_windows} of {!lossy_partition} cuts). *)

val compose_faults : fault_model list -> fault_model
(** Combine fault models: any [Drop] wins, [Duplicate] extras add up.
    Every component is evaluated on every send, so randomness consumption
    is independent of the components' answers. *)

val fault_of :
  fault_fn -> src:proc_id -> dst:proc_id -> now:time -> rng:Rng.t -> fault
(** Evaluate an instantiated fault model, normalizing degenerate
    duplications to [Deliver]. *)
