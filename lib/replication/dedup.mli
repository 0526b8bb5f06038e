(** Replica-side deduplication of idempotent client writes.

    Client retries may inject the same [(client, rid)] write into the
    broadcast layer more than once (e.g. re-submitted through a different
    endpoint after a crash-triggered session migration), and every copy is
    eventually delivered at every replica.  Deduplication is a
    deterministic filter over the {e delivered} sequence — keep the first
    occurrence of each id, drop the rest — so all replicas converge to the
    same deduplicated state and a restarted replica re-derives the same
    duplicate set from its replayed log. *)

val filter : Command.t list -> Command.t list
(** First-occurrence filter over [(client, rid)] ids; commands without
    provenance ({!Command.rid_of} = [None]) pass through untouched. *)

val duplicates : Command.t list -> int
(** Number of commands {!filter} would drop. *)

module Make (M : Machines.MACHINE) : sig
  include Machines.MACHINE

  val inner : state -> M.state
  (** The wrapped machine's state, with every duplicate applied once. *)

  val applied : state -> int
  (** Provenance-carrying writes applied (unique ids seen). *)

  val suppressed : state -> int
  (** Duplicate provenance-carrying writes dropped at apply time. *)

  val has : state -> client:int -> rid:int -> bool
  (** Whether the folded sequence holds a write with this [(client, rid)]:
      the seen-set holds exactly those ids, duplicates included. *)
end
(** [Make (M)] is [M] behind the first-occurrence filter: duplicates of a
    [(client, rid)] write are dropped at apply time and counted instead of
    re-applied. *)
