(** Configurations and schedule steps for the CHT simulation. *)

open Simulator.Types

type step = {
  s_vertex : int;  (** DAG vertex id supplying (process, detector value) *)
  s_recv : (proc_id * Pure.pmsg) option;  (** [None] is the empty message *)
  s_invoke : (int * bool) option;  (** input: invoke proposeEC with a value *)
}

type 'state config = {
  states : 'state array;
  buffers : (proc_id * Pure.pmsg) list array;
  decisions : (proc_id * int * bool) list;
}

val initial : 'state Pure.algo -> n:int -> 'state config

val oldest : 'state config -> proc_id -> (proc_id * Pure.pmsg) option
(** The oldest undelivered message addressed to [p]. *)

val same_step_content : Dag.t -> step -> step -> bool
(** Equal (process, detector value, receive, invoke) — the step identity the
    fork/hook definitions use. *)

val apply : dag:Dag.t -> 'state Pure.algo -> 'state config -> step -> 'state config
(** Raises [Invalid_argument] if the received message is not the oldest
    pending one. *)

val values_for : 'state config -> instance:int -> bool list
val conflicting : 'state config -> instance:int -> bool
val enabled : 'state config -> instance:int -> bool
