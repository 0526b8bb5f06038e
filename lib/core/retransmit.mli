(** Epoch-tagged retransmission links: sender-side retransmission with
    per-destination sequence numbers, receiver-side dedup, and bounded
    exponential backoff.  Factored out of {!Recoverable} (PR 3's reliable
    links for restarted processes) so any component needing reliable
    delivery over the engine's lossy extensions — crash downtime windows,
    lossy partitions — reuses one implementation.

    Usage: the owner calls {!send}/{!broadcast} instead of the raw engine
    sends, drives {!retry} from its local timer, routes incoming [Rlink]
    frames through {!admit} (delivering the inner payload only on
    [`Deliver], and answering with [Rlink_ack] per its own durability
    rule, e.g. log-before-ack), and feeds [Rlink_ack] frames to {!ack}. *)

open Simulator
open Simulator.Types

type Msg.payload +=
  | Rlink of { epoch : int; seq : int; inner : Msg.payload }
      (** A retransmission-layer frame around a protocol payload.  [epoch]
          is the sender incarnation's restart count: receivers key their
          dedup state on it, so a restarted sender (whose [seq] starts
          over) is not swallowed as a duplicate of its former self. *)
  | Rlink_ack of { epoch : int; seq : int }

type config = {
  ack_timeout : int;  (** initial retransmission timeout, in ticks *)
  max_backoff : int;  (** retransmission backoff cap, in ticks *)
}

type t

val create : config:config -> epoch:int -> Engine.ctx -> t
(** One link layer for one process incarnation; [epoch] is its restart
    count (0 for a never-restarted process).  The timeouts come from the
    owner's configuration ({!Recoverable.default_config} holds the
    defaults). *)

val send : t -> proc_id -> Msg.payload -> unit
(** Frame [payload], send it, and retransmit until acknowledged. *)

val broadcast : t -> Msg.payload -> unit
(** {!send} to every process, including self. *)

val retry : t -> unit
(** Retransmit every overdue unacknowledged frame, doubling its backoff
    up to the cap.  Drive this from the owner's local timer.  Returns at
    once until the earliest unacknowledged frame is due. *)

val admit : t -> src:proc_id -> epoch:int -> seq:int -> [ `Stale | `Duplicate | `Deliver ]
(** Receiver-side dedup for an incoming [Rlink] frame.  [`Deliver]: first
    time seen, deliver the inner payload and acknowledge. [`Duplicate]:
    already delivered (the ack was lost) — re-acknowledge without
    re-delivering.  [`Stale]: a dead incarnation's in-flight frame —
    ignore.  Per source it keeps a watermark below which every frame was
    delivered and the frames delivered above it, not every seq seen. *)

val ack : t -> src:proc_id -> epoch:int -> seq:int -> unit
(** Process an incoming [Rlink_ack]: stop retransmitting that frame.
    Acks carrying a different epoch (addressed to an earlier incarnation)
    are ignored. *)

val retransmitted : t -> int
(** Frames re-sent by this incarnation's link layer. *)
