(** Purely functional automata for CHT simulation, and the pure form of
    Algorithm 4 used as the reduction's target algorithm. *)

open Simulator.Types

type pmsg = Promote of { value : bool; instance : int }

type decision = int * bool

type 'state algo = {
  a_name : string;
  a_init : n:int -> proc_id -> 'state;
  a_pending_invocation : 'state -> int option;
      (** [Some l] iff the process is due to invoke [proposeEC_l] at its next
          step (the tree branches on the proposed value). *)
  a_step :
    n:int ->
    self:proc_id ->
    'state ->
    recv:(proc_id * pmsg) option ->
    fd:Fd_value.t ->
    invoke:(int * bool) option ->
    'state * (proc_id * pmsg) list * decision list;
}

type ec_state

val ec_omega : ec_state algo
(** Pure Algorithm 4 over Omega samples. *)

val ec_trusted : ec_state algo
(** The same automaton reading the leader through {!Fd_value.trusted}, so it
    also runs against suspicion-list detectors such as [<>P]. *)
