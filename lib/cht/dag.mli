(** The failure-detector sample DAG [G] of Appendix B.2, built
    deterministically from a failure pattern and a detector history so that
    all four CHT DAG properties hold. *)

open Simulator
open Simulator.Types

type vertex = {
  v_id : int;  (** global creation order — the CHT "m-based" vertex order *)
  v_proc : proc_id;
  v_index : int;  (** this is [v_proc]'s k-th sample *)
  v_time : time;
  v_value : Fd_value.t;
}

type t

val build :
  pattern:Failures.pattern ->
  sampler:(proc_id -> time -> Fd_value.t) ->
  period:int ->
  gossip:int ->
  rounds:int ->
  t
(** Process [p] samples at times [k * period + p] while alive; an edge
    [(u, v)] exists iff [u] is at least [gossip] ticks older than [v] or
    they share a process with [u] earlier. *)

val of_explicit :
  pattern:Failures.pattern ->
  vertices:vertex array ->
  edges:(int * int) list ->
  t
(** A DAG with an explicit edge set (pred id, succ id), e.g. exported from
    the engine-run communication task ({!Dag_protocol}).  Ids must equal
    array positions; same-process sample order is added implicitly. *)

val vertices : t -> vertex list
val vertex : t -> int -> vertex
val size : t -> int
val pattern : t -> Failures.pattern

val prefix : t -> horizon:time -> t
(** The DAG visible by [horizon]: the local DAG [G_p(t)]. *)

val window : t -> from_horizon:time -> to_horizon:time -> t
(** The samples taken during the window, reinterpreted as a fresh DAG.  The
    emulation loop slides this forward so that late windows contain only
    post-stabilization samples of correct processes — the bounded-budget
    realization of CHT's valency stabilization. *)

val extensions : t -> last:vertex option -> used:int list -> width:int -> vertex list
(** Candidate next path vertices: per process, its [width] earliest samples
    not in [used] and reachable from [last]. *)

val check_sampling : t -> sampler:(proc_id -> time -> Fd_value.t) -> bool
val check_order : t -> bool
val check_transitive : t -> bool
val check_fairness : t -> rounds:int -> period:int -> bool
