(** The eventual total order broadcast (ETOB) abstraction: interface
    conventions shared by all ETOB implementations (Section 3). *)

open Simulator

type Io.input += Broadcast_etob of App_msg.t
(** External invocation of [broadcastETOB(m)]. *)

type Io.output +=
  | Etob_broadcast of App_msg.t
      (** Recorded on every broadcast: the input history for checkers. *)
  | Etob_deliver of Dseq.t
      (** The new value of the delivered sequence [d_i]. *)

type service = {
  broadcast : App_msg.t -> unit;
  current : unit -> Dseq.t;
  on_deliver : (Dseq.t -> unit) -> unit;
  fresh_msg : ?tag:string -> unit -> App_msg.t;
      (** Allocate this process's next message with genuine causal
          dependencies (last own broadcast and last delivered message). *)
}

(** {2 Implementation plumbing} *)

type backend

val backend : Engine.ctx -> backend
val ctx_of : backend -> Engine.ctx
val current_of : backend -> Dseq.t
val record_broadcast : backend -> App_msg.t -> unit
val set_delivered : backend -> Dseq.t -> unit
(** Record a new value of [d_i] and fire the listeners. *)

val restore_backend :
  backend -> next_sn:int -> last_own:App_msg.id option -> unit
(** Reinstate the allocation state replayed from stable storage, silently:
    no output is recorded and no listener fires.  Used by the
    crash-recovery wrapper ({!Recoverable}); the caller announces the
    restored [d_i] itself. *)

val service_of : backend -> broadcast:(App_msg.t -> unit) -> service
