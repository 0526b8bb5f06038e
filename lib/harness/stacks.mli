(** Hand-wired stacks: protocols, detectors, workloads and the engine,
    glued together process by process.  The one API for runs that need
    more than a declarative {!Builder.t} can say: a hand-built failure
    pattern or sink, raw engine inputs, or the protocol handles a run
    returns (anti-entropy stats, recovery handles and stores).
    {!Builder.run} dispatches to the [run_*] functions below, so a builder
    and a hand-wired setup that denote the same run produce the same
    trace. *)

open Simulator
open Simulator.Types
open Ec_core

type omega_source =
  | Oracle of { stabilize_at : time; pre : Detectors.Omega.pre_behaviour }
      (** The paper's model: Omega as a history oracle. *)
  | Elected of { initial_timeout : int }
      (** The heartbeat-based emulation of a running system. *)

type setup = {
  n : int;
  seed : int;
  deadline : time;
  timer_period : int;  (** the paper's Delta_t *)
  delay : Net.model;
  faults : Net.fault_model;
      (** link-fault injection (drops/duplicates); {!Net.no_faults} by
          default, which keeps runs byte-identical to fault-free builds *)
  pattern : Failures.pattern;
  omega : omega_source;
  sink : Sink.t option;
      (** threaded into {!Engine.config}: [None] records a full trace,
          [Some s] sends run events to [s] and the returned trace is
          empty (see {!Engine.config}). *)
}

val default : n:int -> deadline:time -> setup
(** Failure-free, unit delays, oracle Omega stable from time 0, recording
    sink. *)

val engine_config : setup -> Engine.config

val omega_module :
  setup -> Engine.ctx -> (unit -> proc_id) * Engine.node
(** Per-process Omega module: query closure plus maintaining component. *)

val omega_stabilization : setup -> time option
(** The configured tau_Omega, or [None] for the emulation. *)

(** {2 Workloads} *)

type Io.input += Post of string
(** Ask the process to broadcast a fresh message with genuine causal
    dependencies (allocated through the ETOB service). *)

val post_driver : Etob_intf.service -> Engine.node

val spread_posts :
  n:int -> count:int -> from_time:time -> every:int ->
  (time * proc_id * Io.input) list
(** Round-robin senders posting one message every [every] ticks. *)

(** {2 Protocol stacks} *)

type etob_impl =
  | Algorithm_5  (** the paper's direct ETOB from Omega *)
  | Paxos_baseline  (** strong TOB from repeated consensus *)
  | Algorithm_1_over_4  (** the EC-to-ETOB transformation over Algorithm 4 *)

val etob_node :
  ?mutation:Etob_omega.mutation ->
  setup -> etob_impl -> Engine.ctx -> Engine.node * Etob_intf.service
(** [mutation] seeds a bug into Algorithm 5; the other stacks ignore it. *)

val run_etob :
  ?inputs:(time * proc_id * Io.input) list ->
  ?mutation:Etob_omega.mutation ->
  setup -> etob_impl -> Trace.t

val etob_report : setup -> Trace.t -> Properties.etob_report

val run_etob_ae :
  ?inputs:(time * proc_id * Io.input) list ->
  ?mutation:Etob_omega.mutation ->
  ?ae_config:Anti_entropy.config ->
  ?ae_mutation:Anti_entropy.mutation ->
  setup ->
  Trace.t * (Etob_omega.t * Anti_entropy.t) array
(** Algorithm 5 plus the {!Ec_core.Anti_entropy} catch-up component: the
    partition-hardened crash-stop stack.  Returns the per-process protocol
    and anti-entropy handles so tests and benches can read
    {!Ec_core.Anti_entropy.stats} (e.g. E18's digest-vs-flood traffic
    comparison). *)

val recoverable_node :
  ?rconfig:Recoverable.config ->
  ?mutation:Recoverable.mutation ->
  ?etob_mutation:Etob_omega.mutation ->
  ?commits:bool ->
  ?ae:Anti_entropy.config ->
  ?ae_mutation:Anti_entropy.mutation ->
  setup ->
  stores:Persist.Store.t array ->
  Engine.ctx ->
  Engine.node * Recoverable.t
(** One process of the crash-recovery stack (Algorithm 5 under
    {!Ec_core.Recoverable}), drawing its stable store from [stores] —
    usable directly as the engine's restart hook, since the store array
    outlives the incarnations. *)

val run_recoverable :
  ?inputs:(time * proc_id * Io.input) list ->
  ?rconfig:Recoverable.config ->
  ?mutation:Recoverable.mutation ->
  ?etob_mutation:Etob_omega.mutation ->
  ?commits:bool ->
  ?ae:Anti_entropy.config ->
  ?ae_mutation:Anti_entropy.mutation ->
  ?stores:Persist.Store.t array ->
  setup ->
  Trace.t * Recoverable.t array * Persist.Store.t array
(** Run the crash-recovery stack under the setup's failure pattern
    (including downtime windows).  Returns the trace, the latest
    incarnation handles, and the stores (fresh ones unless [stores] is
    given, e.g. with disk faults already armed). *)

val run_gossip_order :
  ?inputs:(time * proc_id * Io.input) list -> setup -> Trace.t
(** The leaderless gossip-ordering baseline (no Omega): converges only when
    broadcasts stop — the E13 negative control. *)

val run_etob_with_commits :
  ?inputs:(time * proc_id * Io.input) list -> setup -> Trace.t
(** Algorithm 5 plus the Section 7 committed-prefix indications. *)

val run_ec_omega :
  ?inputs:(time * proc_id * Io.input) list ->
  setup ->
  propose_value:(proc_id -> instance:int -> Value.t) ->
  max_instance:int ->
  Trace.t
(** Bare Algorithm 4 with the self-driving proposer. *)

val run_ec_lifted :
  ?inputs:(time * proc_id * Io.input) list ->
  setup ->
  propose_value:(proc_id -> instance:int -> Value.t) ->
  max_instance:int ->
  Trace.t
(** Multivalued EC through the binary lift over binary Algorithm 4 (inner
    layer "ec-inner"). *)

val run_ec_via_etob :
  ?inputs:(time * proc_id * Io.input) list ->
  setup ->
  etob_impl ->
  propose_value:(proc_id -> instance:int -> Value.t) ->
  max_instance:int ->
  Trace.t
(** EC through Algorithm 2 over the given ETOB implementation. *)

val run_eic_over_ec :
  ?inputs:(time * proc_id * Io.input) list ->
  setup ->
  propose_value:(proc_id -> instance:int -> Value.t) ->
  max_instance:int ->
  Trace.t
(** EIC through Algorithm 6 over Algorithm 4 (inner EC layer "ec-inner"). *)

val run_ec_via_eic :
  ?inputs:(time * proc_id * Io.input) list ->
  setup ->
  propose_value:(proc_id -> instance:int -> Value.t) ->
  max_instance:int ->
  Trace.t
(** EC through Algorithm 7 over (Algorithm 6 over Algorithm 4). *)
