(** Run-property checkers for every property of Section 3 and Appendix A,
    evaluated on finished run traces.

    "Eventually" clauses are interpreted against the run horizon (e.g.
    TOB-Validity becomes membership in the broadcaster's final delivered
    sequence), and the stabilization times tau are measured rather than
    asserted, so benches can compare them to the paper's bound
    tau_Omega + Delta_t + Delta_c. *)

open Simulator
open Simulator.Types

type verdict = { ok : bool; violations : string list }

(** {2 Sequence histories}

    ETOB's [d_i] (Section 3) and the committed prefix (Section 7) are both
    sequences that get revised; one history type holds either. *)

type seq_history
(** Per process, the chronological revisions of one sequence output, with
    the run's failure pattern and, for an ETOB run, its broadcasts.  The
    revisions are the trace's own {!Dseq.t} values; the list readers
    below convert what they return. *)

val etob_run_of_trace : Failures.pattern -> Trace.t -> seq_history
(** The revisions of [d_i] and every broadcastETOB event. *)

val commit_run_of_trace : Failures.pattern -> Trace.t -> seq_history
(** The revisions of the committed prefix (no broadcasts). *)

(** {2 ETOB runs}

    Costs, for a run of R revisions that add F messages in all (a
    revision adds what is past its predecessor; one that does not start
    with its predecessor adds all of itself) among k correct processes:
    {!check_no_creation}, {!check_no_duplication}, {!check_causal_order}
    and {!total_order_time} are one sweep of O(R + F k) table operations,
    plus the length of every violation message they report;
    {!stability_time} walks what each revision adds; validity and
    {!check_agreement} read the final revisions once.  {!etob_report}
    sweeps once for all of them.  At 10{^3} broadcasts under a stable
    leader (4,711 revisions of Algorithm 5, 2.36M ids if each were read
    whole) the report costs about a quarter of the run.  The list
    readers ({!final_d}, {!d_at}, {!revisions}, {!stable_delivery_time},
    {!commit_time}, {!final_committed}) and {!check_deps_present} convert
    the revisions they read whole. *)

val final_d : seq_history -> proc_id -> App_msg.t list
val d_at : seq_history -> proc_id -> time -> App_msg.t list

val revisions : seq_history -> proc_id -> (time * App_msg.t list) list
(** The chronological revisions of [d_p], each converted whole. *)

val iter_deltas :
  seq_history -> proc_id -> (time -> int -> App_msg.t list -> unit) -> unit
(** [iter_deltas run p f] reads p's revisions in order, each as its delta
    against p's previous revision: [f t kept fresh], where the revision at
    [t] is the previous revision's first [kept] messages followed by
    [fresh], as {!Dseq.delta} reads it: [kept] is the previous
    revision's whole length when the new one starts with exactly its
    messages, and [0] otherwise, when [fresh] is the whole revision.
    O(|fresh|) for a revision that shares its predecessor.  The liveness
    watchdog ({!Harness.Watchdog}) reads its convergence progress this
    way. *)

val broadcasts : seq_history -> (time * proc_id * App_msg.t) list
(** Every broadcastETOB event of the run, chronological. *)

val correct_procs : seq_history -> proc_id list

val check_no_creation : seq_history -> verdict
val check_no_duplication : seq_history -> verdict
val check_agreement : seq_history -> verdict

val stability_time : seq_history -> time
(** Measured ETOB-Stability tau; [0] means strong TOB-Stability. *)

val total_order_time : seq_history -> time
(** Measured ETOB-Total-order tau; [0] means strong TOB-Total-order. *)

val check_causal_order : seq_history -> verdict
(** TOB-Causal-Order, required at {e all} times. *)

val check_deps_present : seq_history -> verdict
(** Stronger, Algorithm-5-specific property: a delivered message's causal
    dependencies are themselves delivered. *)

val orders_agree : App_msg.t list -> App_msg.t list -> bool
(** Common messages of the two sequences appear in the same relative
    order: read in the first sequence's order, their first positions in
    the second strictly increase.  So a repeated common message disagrees
    in the first sequence and is ignored in the second.  O(|a| + |b|). *)

type etob_report = {
  validity : verdict;
  no_creation : verdict;
  no_duplication : verdict;
  agreement : verdict;
  causal_order : verdict;
  distinct_broadcasts : verdict;
  tau_stability : time;
  tau_total_order : time;
}

val etob_report : seq_history -> etob_report

val etob_base_ok : etob_report -> bool
(** The paper's four base TOB properties (validity, no-creation,
    no-duplication, agreement) hold.  [distinct_broadcasts] is a check on
    the model's {e assumption} rather than on the protocol, so it is
    reported separately (and folded into {!etob_violations}). *)

val is_strong_tob : etob_report -> bool
(** All six strong TOB properties hold (tau = 0). *)

val etob_violations : ?tau_bound:time -> etob_report -> string list
(** Flatten a report into the violated-property messages the explorer
    consumes: all safety violations, plus — when [tau_bound] is given — the
    measured taus exceeding it.  Use [tau_bound:0] for runs whose detector
    never flaps (strong TOB is then mandatory) and the plan's settle time
    plus slack otherwise; omit it to check eventual properties only.
    Empty list = clean run. *)

val etob_convergence_time : etob_report -> time
val pp_etob_report : Format.formatter -> etob_report -> unit

val stable_delivery_time : seq_history -> App_msg.t -> time option
(** The time by which every correct process has stably delivered [m]. *)

(** {2 Committed prefixes (Section 7 extension)} *)

val check_commit_stability : seq_history -> verdict
(** A committed prefix is never rolled back: every announcement extends the
    previous one at the same process. *)

val final_committed : seq_history -> proc_id -> App_msg.t list

val check_commit_consistent : seq_history -> seq_history -> verdict
(** [check_commit_consistent commits etob]: every committed prefix is a
    prefix of what every correct process eventually delivers. *)

val commit_time : seq_history -> App_msg.t -> time option
(** The time by which every correct process knows [m] committed. *)

val committed_count : seq_history -> proc_id -> int

(** {2 Decision histories}

    EC and EIC (Appendix A) read the same proposal/response history and
    differ only in agreement versus eventual integrity. *)

type decision_history

val ec_run_of_trace : ?layer:string -> Failures.pattern -> Trace.t -> decision_history
(** Extract the EC history of one layer (default {!Ec_intf.default_layer}). *)

val eic_run_of_trace : Failures.pattern -> Trace.t -> decision_history

val decided_instances : decision_history -> int list

(** {2 EC} *)

type ec_report = {
  integrity : verdict;
  ec_validity : verdict;
  termination : verdict;
  agreement_index : int;
}

val ec_report : decision_history -> instances:int -> ec_report
val ec_ok : ?agreement_by:int -> ec_report -> bool
val pp_ec_report : Format.formatter -> ec_report -> unit

(** {2 EIC (Appendix A)} *)

val eic_integrity_index : decision_history -> int
(** Measured EIC-Integrity index k: no double response for instances >= k. *)

val eic_revocation_count : decision_history -> int
(** Total number of revocations (extra responses) in the run — EIC allows
    finitely many. *)

val check_eic_agreement : decision_history -> verdict
val check_eic_validity : decision_history -> verdict
val check_eic_termination : decision_history -> instances:int -> verdict
