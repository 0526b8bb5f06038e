(** Failure-detector values as sampled by the CHT reduction: leader outputs
    (Omega) and suspicion lists ([<>P]). *)

open Simulator.Types

type t =
  | Leader of proc_id
  | Suspects of proc_id list

val leader : proc_id -> t
val suspects : proc_id list -> t

val equal : t -> t -> bool

val trusted : n:int -> self:proc_id -> t -> proc_id
(** The process this value designates as leader ("trust the smallest
    unsuspected" for suspicion lists). *)
