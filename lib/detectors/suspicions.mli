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

val omega_from_ep : eventually_perfect -> self:proc_id -> now:time -> proc_id
(** The classical reduction Omega <= [<>P]: trust the smallest unsuspected
    process. *)
