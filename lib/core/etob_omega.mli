(** Algorithm 5 of the paper: eventual total order broadcast directly from
    Omega, in any environment (Lemma 3).  Two communication steps per
    delivery under a stable leader; full TOB if Omega is stable from the
    start; causal order at all times. *)

open Simulator
open Simulator.Types

type Msg.payload +=
  | Update of Causal_graph.t
  | Promote_seq of { seq : App_msg.t list; rev : App_msg.t list; len : int }
      (** [promote_j], also last message first, and its length. *)

type t

type mutation =
  | Skip_dependency_wait
      (** UpdatePromote linearizes the whole graph instead of its
          dependency-closed ({!Causal_graph.ready}) part, promoting
          messages whose causal past has not arrived. *)
  | Forget_promote_prefix
      (** UpdatePromote re-linearizes from scratch instead of extending the
          previous promotion. *)
  | Drop_graph_union
      (** UnionCG replaced by overwrite: concurrent graphs lose messages. *)
  | Disable_stale_guard
      (** Adopt reordered same-lineage promotions (d_i can regress). *)
(** Seedable single-decision bugs, one per protocol clause, used by the
    adversarial explorer and the mutation-test harness.  Omitting the
    [?mutation] argument gives the faithful Algorithm 5. *)

val all_mutations : mutation list
val mutation_name : mutation -> string
val mutation_of_string : string -> mutation option

val create :
  ?tie_break:(App_msg.t -> App_msg.t -> int) ->
  ?stale_guard:bool ->
  ?mutation:mutation ->
  Engine.ctx ->
  omega:(unit -> proc_id) ->
  t * Engine.node
(** [tie_break] selects among the valid UpdatePromote linearizations; any
    choice is correct (ablated in the benchmarks).  [stale_guard] (default
    true) ignores a promote that is a proper prefix of the current output —
    an older promotion reordered by the (non-FIFO) links; disabling it is
    only for the ablation that shows claim (P2) needs it.  [mutation]
    installs one seeded bug (see {!mutation}). *)

val restore : t -> msgs:App_msg.t list -> delivered:App_msg.t list -> unit
(** Crash-recovery entry point, called from the engine's restart hook by
    {!Recoverable}: reinstate the replayed graph nodes [msgs] and the last
    durable [d_i] value [delivered], recompute [promote_i] and the
    allocation state from them, and announce the restored [d_i] as one
    output revision. *)

val learn : t -> App_msg.t list -> unit
(** Anti-entropy entry point (see {!Anti_entropy}): merge a batch of
    messages learnt out-of-band — a digest-exchange delta rather than an
    update(CG_j) — into the causality graph and re-run UpdatePromote,
    exactly as if their updates had arrived.  Idempotent. *)

val service : t -> Etob_intf.service

val graph : t -> Causal_graph.t
(** The current causality graph [CG_i]. *)

val promotion : t -> App_msg.t list
(** The current promotion sequence [promote_i]. *)

val stats : t -> int * int * int
(** (updates handled, promotes sent, promotes adopted). *)
