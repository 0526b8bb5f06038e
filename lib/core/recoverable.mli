(** Crash-recovery wrapper for Algorithm 5: a durable write-ahead log with
    periodic checkpoints (lib/persist), replay-on-restart, and sender-side
    retransmission links with receiver dedup — restoring, under the
    engine's crash-recovery extension, the volatile-state and
    reliable-link assumptions the paper's crash-stop model grants for
    free.

    Durability policy: own broadcasts and messages learnt from peers are
    logged with a sync barrier before the corresponding send or
    acknowledgment (so sequence-number allocation never regresses and
    acknowledged messages survive); revisions of [d_i] are logged without
    a barrier (a lost suffix only rewinds to an older adopted promotion,
    which the leader re-teaches); committed prefixes are logged with a
    barrier (externally visible promises).

    Records, in App_msg wire forms: ["m <msg>"] per graph node;
    ["d <seq>"] for a whole revision of [d_i] and ["d+ <k> <seq>"] for
    one that extends the revision before it (its first [k] messages,
    then [seq]); ["c <seq>"] and ["c+ <k> <seq>"] likewise for the
    committed prefix; ["x <origin> <sn>"] forgets a node (only a
    protocol that replaces [CG_i], the drop-graph-union mutant, writes
    it).  Each step logs what it adds: the nodes new since the last
    event and each revision's new messages.  Every [snapshot_every]
    appends the log is checkpointed ({!Persist.Store.checkpoint}), which
    seals it and re-serializes nothing; a restart replays the whole
    durable image, then the log, inside the restart hook. *)

open Simulator.Types

(** The retransmission frames ([Rlink]/[Rlink_ack]) live in {!Retransmit},
    the reusable link layer this wrapper drives. *)

type config = {
  snapshot_every : int;
      (** checkpoint after this many log appends: the cadence decides what
          the dirty tail holds at a crash *)
  ack_timeout : int;  (** initial retransmission timeout, in ticks *)
  max_backoff : int;  (** retransmission backoff cap, in ticks *)
}

val default_config : config
(** [{ snapshot_every = 8; ack_timeout = 4; max_backoff = 32 }]. *)

type mutation = Skip_log_replay
      (** Restart with amnesia: open the store but skip the replay, so the
          process reuses already-allocated sequence numbers — violating
          the paper's distinct-messages assumption.  The explorer's
          recovery adversities must catch this. *)

val all_mutations : mutation list
val mutation_name : mutation -> string
val mutation_of_string : string -> mutation option

type t

val create :
  ?config:config ->
  ?mutation:mutation ->
  ?etob_mutation:Etob_omega.mutation ->
  ?commits:bool ->
  ?anti_entropy:Anti_entropy.config ->
  ?ae_mutation:Anti_entropy.mutation ->
  store:Persist.Store.t ->
  omega:(unit -> proc_id) ->
  Simulator.Engine.ctx ->
  t * Simulator.Engine.node * Etob_intf.service
(** Build one process of the recoverable stack: open (or re-open) [store],
    replay image-then-log into a fresh Algorithm-5 instance, and wrap
    its node and service so every send is framed and retransmitted until
    acknowledged and every state change hits the log per the durability
    policy.  Meant to be called from the engine's restart hook
    ([make_node]), with [store] taken from a per-process pool that
    outlives the incarnations ({!Persist.Store.pool}).

    [commits] additionally stacks the committed-prefix component
    ({!Commit_prefix}) under the same log.  [anti_entropy] (or
    [ae_mutation]) additionally stacks the {!Anti_entropy} digest-exchange
    component beside the protocol — it sends unframed (it is its own
    retransmission mechanism) and everything it learns flows into the
    write-ahead log like any other graph growth.  [etob_mutation] seeds a
    bug in the wrapped protocol; [mutation] seeds a bug in the recovery
    path itself; [ae_mutation] seeds one in the anti-entropy layer. *)

val retransmitted : t -> int
(** Frames re-sent by the link layer of this incarnation. *)

val was_restarted : t -> bool
(** This incarnation was created by a post-crash re-open. *)

val replayed_msgs : t -> int
(** Distinct messages recovered from the store by this incarnation. *)
