(** Anti-entropy catch-up for Algorithm 5's causality graph: periodic
    digest exchange of known-prefix/message summaries, answered with
    O(missing) deltas, so a replica isolated through a {e lossy} partition
    ({!Simulator.Net.lossy_partition}) resynchronizes after the heal
    without flood-on-heal or a full history replay.

    Every [every] timer rounds each process broadcasts a constant-size
    digest (per origin: longest contiguous sequence-number prefix plus
    out-of-order extras, read off {!Causal_graph.spans}); a peer answers
    with exactly the messages the digest does not cover, in id order.
    Both cost the origins plus what is missing, not the history.  Per-peer exponential backoff (reset on
    progress) stops identical deltas from being re-sent every round, and
    the receiver filters already-known messages before integrating, so
    repeated deltas are deduplicated and integration is idempotent.

    The layer is transport-agnostic: it sends through the raw engine ctx
    (not through {!Retransmit} links — anti-entropy {e is} its own
    retransmission mechanism) and integrates through a [learn] callback,
    so it wires identically under the crash-stop stack
    ([Harness.Stacks.run_etob_ae]) and inside {!Recoverable}. *)

open Simulator
open Simulator.Types

type summary = (proc_id * int * int list) list
(** Per origin: [(origin, prefix, extras)] — every [sn < prefix] is known,
    plus the sorted extras beyond the contiguous prefix. *)

type Msg.payload +=
  | Ae_digest of summary
  | Ae_delta of App_msg.t list
  | Ae_full of App_msg.t list  (** Flood mode's periodic full-set push *)

type mode =
  | Digest  (** digest + O(missing) delta: the real protocol *)
  | Flood
      (** periodically push the whole known message set — the O(history)
          strawman bench E18 compares against *)

type mutation = Skip_digest
      (** Never advertise the local digest: peers then never learn what
          this process is missing, so an isolated replica stays behind
          forever.  The negative control for the explorer's
          watchdog-backed liveness targets. *)

val all_mutations : mutation list
val mutation_name : mutation -> string
val mutation_of_string : string -> mutation option

type config = {
  mode : mode;
  every : int;  (** digest broadcast period, in local timer rounds *)
  max_backoff : int;  (** per-peer delta resend backoff cap, in rounds *)
}

val default_config : config
(** [{ mode = Digest; every = 3; max_backoff = 8 }]. *)

type stats = {
  digests_sent : int;  (** digest broadcasts *)
  deltas_sent : int;  (** delta messages sent (one per answered digest) *)
  delta_msgs : int;  (** application messages carried in deltas *)
  floods_sent : int;  (** full-set broadcasts (Flood mode) *)
  flood_msgs : int;
      (** application messages carried in floods, counted per recipient *)
  learned : int;  (** previously unknown messages integrated *)
}

type t

val create :
  ?config:config ->
  ?mutation:mutation ->
  Engine.ctx ->
  graph:(unit -> Causal_graph.t) ->
  learn:(App_msg.t list -> unit) ->
  t * Engine.node
(** One anti-entropy component for one process.  [graph] reads the current
    causality graph; [learn] integrates a batch of genuinely new messages
    (already filtered against [graph]) — for Algorithm 5 this is
    {!Etob_omega.learn}.  Stack the node beside the protocol's. *)

val stats : t -> stats
