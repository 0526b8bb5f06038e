(** Campaign summary and exit verdict.

    Verdict severity, in order: an aborted campaign (sacrifice budget
    exhausted) and unshrinkable findings are infrastructure-grade
    failures (exit 2, CI hard-fail); reproducible findings are protocol
    bugs (exit 1); a completed clean campaign exits 0. *)

type verdict =
  | Clean
  | Findings of int  (** all quarantined findings replay from their repro *)
  | Unshrinkable of int  (** findings whose shrunk repro fails to replay *)
  | Aborted of string

val verdict : Campaign.state -> verdict
val exit_code : verdict -> int

val pp : Campaign.config -> Format.formatter -> Campaign.state -> unit
(** Human summary: totals, per-leg coverage, findings with artifacts,
    poisoned seeds, degradation rungs, coverage digest. *)
