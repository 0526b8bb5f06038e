(** Basic identifiers shared by every layer of the system.

    The model follows Section 2 of the paper: a set of processes
    [{p_0, ..., p_{n-1}}] (0-based ids here) and a discrete global clock with
    range [N] to which the processes themselves have no access. *)

type proc_id = int
(** A process identifier in [0 .. n-1]. *)

type time = int
(** A tick of the discrete global clock. *)

val pp_proc : Format.formatter -> proc_id -> unit

val all_procs : int -> proc_id list
(** [all_procs n] is [[0; 1; ...; n-1]]. *)

val is_valid_proc : n:int -> proc_id -> bool
(** [is_valid_proc ~n p] holds iff [0 <= p && p < n]. *)
