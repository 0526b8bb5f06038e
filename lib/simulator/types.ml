(* Basic identifiers shared by every layer of the system.

   The model follows Section 2 of the paper: a set of processes
   {p_0, ..., p_{n-1}} (we use 0-based ids) and a discrete global clock with
   range N to which the processes themselves have no access. *)

type proc_id = int
type time = int

let pp_proc ppf p = Fmt.pf ppf "p%d" p

(* [all_procs n] is the list [0; 1; ...; n-1]. *)
let all_procs n = List.init n (fun i -> i)

let is_valid_proc ~n p = 0 <= p && p < n
