(** Suspicion-list failure detectors: eventually perfect ([<>P]) and perfect
    ([P]) (Chandra & Toueg).  Both are strictly stronger than Omega. *)

open Simulator
open Simulator.Types

type eventually_perfect

val eventually_perfect :
  ?seed:int -> Failures.pattern -> stabilize_at:time -> eventually_perfect
(** An [<>P] history: noisy suspicions before [stabilize_at], exactly the
    faulty set after. *)

val query_ep : eventually_perfect -> self:proc_id -> now:time -> proc_id list

type perfect

val perfect : Failures.pattern -> lag:int -> perfect
(** A [P] history that suspects each crashed process exactly [lag] ticks
    after its crash — never before (strong accuracy). *)

val query_p : perfect -> self:proc_id -> now:time -> proc_id list

type eventually_strong

val eventually_strong :
  ?seed:int -> Failures.pattern -> stabilize_at:time -> eventually_strong
(** An [<>S] history: strong completeness plus eventual weak accuracy — one
    correct anchor is eventually never suspected, while other correct
    processes may stay wrongly suspected forever. *)

val es_anchor : eventually_strong -> proc_id
val query_es : eventually_strong -> self:proc_id -> now:time -> proc_id list

val es_module_of : eventually_strong -> Engine.ctx -> unit -> proc_id list

val omega_from_ep : eventually_perfect -> self:proc_id -> now:time -> proc_id
(** The classical reduction Omega <= [<>P]: trust the smallest unsuspected
    process. *)
