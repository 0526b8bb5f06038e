(** The eventual total order broadcast (ETOB) abstraction: interface
    conventions shared by all ETOB implementations (Section 3). *)

open Simulator

type Io.input += Broadcast_etob of App_msg.t
(** External invocation of [broadcastETOB(m)]. *)

type Io.output +=
  | Etob_broadcast of App_msg.t
      (** Recorded on every broadcast: the input history for checkers. *)
  | Etob_deliver of App_msg.t list
      (** The new value of the delivered sequence [d_i]. *)

type service = {
  broadcast : App_msg.t -> unit;
  current : unit -> App_msg.t list;
  on_deliver : (App_msg.t list -> unit) -> unit;
  fresh_msg : ?tag:string -> unit -> App_msg.t;
      (** Allocate this process's next message with genuine causal
          dependencies (last own broadcast and last delivered message). *)
}

(** {2 Implementation plumbing} *)

type backend

val backend : Engine.ctx -> backend
val ctx_of : backend -> Engine.ctx
val current_of : backend -> App_msg.t list
val record_broadcast : backend -> App_msg.t -> unit
val set_delivered : ?last:App_msg.t -> backend -> App_msg.t list -> unit
(** Record a new value of [d_i] and fire the listeners.  [last], when the
    caller knows it, is the sequence's last message: {!alloc_msg} then
    need not walk the sequence to find it. *)

val restore_backend :
  backend -> current:App_msg.t list -> next_sn:int ->
  last_own:App_msg.id option -> unit
(** Reinstate state replayed from stable storage, silently: no output is
    recorded and no listener fires.  Used by the crash-recovery wrapper
    ({!Recoverable}); the caller announces the restored [d_i] itself. *)

val next_sn_of : backend -> int
val alloc_msg : backend -> ?tag:string -> unit -> App_msg.t
val service_of : backend -> broadcast:(App_msg.t -> unit) -> service
