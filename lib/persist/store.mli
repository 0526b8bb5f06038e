(** Deterministic simulated stable storage: append-only write-ahead log
    plus a checkpointed durable image, per process.

    A store outlives the automaton that writes to it: the harness creates
    one per process per run, and a recoverable protocol re-opens it from
    the engine's restart hook (see [Engine.run]'s crash-recovery
    contract).

    Durability model: everything checkpointed, and everything appended
    before the last {!sync} barrier, survives any crash undamaged.
    Records appended after the barrier and not yet checkpointed form the
    dirty tail, which injected disk faults can tear, lose or corrupt.
    Every record is stored as its [Frame.frame] encoding
    ([len][crc32][payload]), verified on {!open_} by a whole-frame parse,
    and replay stops at the first record that fails verification.
    {!checkpoint} seals the log into the durable image: atomic and
    durable, it moves every record logged since the last checkpoint into
    the image and starts an empty log, so the dirty tail is empty until
    the next append.  Nothing is re-serialized: a checkpoint costs the
    records it seals. *)

type t

type fault =
  | Torn_tail  (** the newest dirty record was half-written at the crash *)
  | Lost_suffix of int  (** the newest k dirty records never hit the disk *)
  | Corrupt_record
      (** the oldest dirty record is damaged on the medium; the checksum
          detects it on replay, which then discards the whole tail *)

val fault_to_string : fault -> string
(** Stable text form ("torn", "lose:3", "corrupt") used by the explorer's
    adversity plans and repro files. *)

val fault_of_string : string -> fault option

val create : unit -> t
(** An empty store: empty image, empty log, nothing armed. *)

val pool : n:int -> t array
(** One store per process. *)

val append : t -> string -> unit
(** Append one opaque record to the log (framed, not yet durable). *)

val sync : t -> unit
(** Durability barrier: every record appended so far survives any later
    crash undamaged. *)

val checkpoint : t -> unit
(** Atomically seal every record logged since the last checkpoint into
    the durable image (synced or not) and start an empty log. *)

val arm_fault : t -> fault -> unit
(** Queue a disk fault; one armed fault is applied per crash, in arming
    order, to the dirty tail only.  A fault with an empty dirty tail is a
    no-op. *)

type opening = {
  durable : string list;
      (** the checkpointed records, oldest first: always whole *)
  records : string list;
      (** the log records since the last checkpoint, oldest first: the
          checksum-verified prefix *)
  restarted : bool;
      (** true iff a previous incarnation opened this store and then
          crashed without closing — i.e. this open is a post-crash
          recovery, and one armed fault (if any) was just applied *)
}

val open_ : t -> opening
(** Open the store for a (re)starting process and replay its durable
    state: the image, then the log.  On a post-crash open, the next armed
    fault is applied to the log first, then checksums are verified and
    the log is truncated to the verified prefix. *)

val log_length : t -> int
(** Records logged since the last checkpoint. *)

type stats = {
  appends : int;
  syncs : int;
  checkpoints : int;
  restarts : int;
  records_lost : int;  (** dropped by faults or discarded after damage *)
  corrupt_detected : int;  (** records that failed checksum verification *)
}

val stats : t -> stats
