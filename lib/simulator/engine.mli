(** The discrete-event simulation engine: the executable form of the paper's
    computational model (Section 2).

    Each process is a deterministic automaton whose steps are triggered by
    message deliveries, periodic local timeouts and external inputs.  Every
    run is a pure function of its {!config}: the same configuration always
    produces the same trace. *)

open Types

type ctx = {
  self : proc_id;
  n : int;
  now : unit -> time;  (** current global time — for oracles, not protocols *)
  send : proc_id -> Msg.payload -> unit;
  broadcast : Msg.payload -> unit;  (** send to every process, including self *)
  output : Io.output -> unit;  (** record an output-history event *)
  rng : Rng.t;  (** per-process deterministic randomness *)
}
(** Capabilities handed to a process at construction time. *)

type node = {
  on_message : src:proc_id -> Msg.payload -> unit;
  on_timer : unit -> unit;
  on_input : Io.input -> unit;
}
(** A protocol component.  Components must ignore payloads and inputs they do
    not recognize, so several components can share one process. *)

val idle_node : node

val combine : node -> node -> node
(** Run two components side by side; both see every event. *)

val stack : node list -> node

type config = {
  n : int;
  pattern : Failures.pattern;
  delay : Net.model;  (** stateful models are re-instantiated per run *)
  faults : Net.fault_model;
      (** adversarial drop/duplication of individual sends; the default
          {!Net.no_faults} keeps the engine on the historical fault-free
          path, byte-identical to pre-fault builds.  A dropped send is
          reported through the sink's [on_drop] at its send time. *)
  timer_period : int;  (** the paper's local-timeout period, Delta_t *)
  seed : int;
  deadline : time;  (** run horizon; only truncation, never unfairness *)
  sink : Sink.t option;
      (** where run events go.  [None] (the default) records the full
          input/output history into the returned trace; [Some s] sends
          every event to [s] instead, and the returned trace stays empty —
          combine with {!Sink.recorder} and {!Sink.tee} to observe both. *)
}

val default_config : n:int -> deadline:time -> config
(** Failure-free, unit delays, timer period 2, seed 42, recording sink. *)

val check_config : config -> unit
(** The bounds {!run} enforces on a config: n >= 2, a failure pattern of
    size n, timer period >= 1, deadline >= 1.  Raises [Invalid_argument]
    naming the first one violated. *)

val run :
  config ->
  make_node:(ctx -> node) ->
  inputs:(time * proc_id * Io.input) list ->
  Trace.t
(** Run to the deadline and return the trace.  Processes take no steps
    while down (permanently crashed, or inside a downtime window of the
    pattern); messages addressed to them are dropped; all other messages
    are delivered after their model delay.

    Crash-recovery: for every downtime window [(p, at, recover_at)] of
    [config.pattern], the engine discards p's in-flight volatile state at
    [at] (the automaton is dropped; nothing survives but what it wrote to
    its own stable store) and restarts p at [recover_at] by invoking
    [make_node] again with a fresh ctx — [make_node] is the per-process
    restart hook, and is where a recoverable protocol replays its store
    (see lib/persist and Ec_core.Recoverable).  The restarted process's
    timers resume within one timer period.  Both transitions are reported
    through the sink's [on_crash]/[on_recover]; the default recorder
    ignores them, so crash-stop runs are byte-identical to pre-recovery
    builds. *)

val run_with :
  config ->
  make_node:(ctx -> node * 'a) ->
  inputs:(time * proc_id * Io.input) list ->
  Trace.t * 'a array
(** Like {!run} but also returns one caller-chosen handle per process
    (typically a view on the protocol's internal state).  If a process was
    restarted, its slot holds the handle of the latest incarnation. *)
