(* Run-property checkers.

   Each checker decides one property from Section 3 (or Appendix A) of the
   paper over a finished run's trace.  A run is finite, so the "eventually"
   clauses are interpreted against the run horizon: e.g. TOB-Validity
   becomes "the message is in the broadcaster's final delivered sequence",
   and the stabilization times tau are *measured* rather than asserted.
   Tests pick horizons comfortably past all scheduled stabilizations, so a
   failed check is a genuine violation, and benches report the measured tau
   against the paper's bound tau_Omega + Delta_t + Delta_c (Lemma 3). *)

open Simulator
open Simulator.Types

type verdict = { ok : bool; violations : string list }

let of_violations violations = { ok = violations = []; violations }

let pp_verdict ppf v =
  if v.ok then Fmt.string ppf "ok"
  else Fmt.pf ppf "@[<v>FAIL:@,%a@]" (Fmt.list Fmt.string) v.violations

let str fmt = Format.asprintf fmt

(* ------------------------------------------------------------------ *)
(* Sequence histories: d_i (Section 3), committed prefixes (Section 7) *)
(* ------------------------------------------------------------------ *)

type seq_history = {
  s_pattern : Failures.pattern;
  (* Every broadcastETOB(m) event: (time, broadcaster, m).  Empty in a
     committed-prefix history. *)
  s_broadcasts : (time * proc_id * App_msg.t) list;
  (* Per process, the chronological revisions: (time, sequence). *)
  s_revisions : (time * App_msg.t list) list array;
}

let etob_run_of_trace pattern trace =
  { s_pattern = pattern;
    s_broadcasts =
      List.filter_map
        (function
          | t, p, Etob_intf.Etob_broadcast m -> Some (t, p, m)
          | _ -> None)
        (Trace.outputs trace);
    s_revisions =
      Trace.series trace (function
        | Etob_intf.Etob_deliver seq -> Some (Dseq.to_list seq)
        | _ -> None) }

let commit_run_of_trace pattern trace =
  { s_pattern = pattern;
    s_broadcasts = [];
    s_revisions =
      Trace.series trace (function
        | Commit_prefix.Committed seq -> Some (Dseq.to_list seq)
        | _ -> None) }

(* The last revision (initially the empty sequence). *)
let final run p = List.fold_left (fun _ (_, seq) -> seq) [] run.s_revisions.(p)

let final_d = final

(* d_p(t): the last revision at or before t (initially the empty sequence). *)
let d_at run p t =
  let rec scan best = function
    | [] -> best
    | (t', seq) :: rest -> if t' <= t then scan seq rest else best
  in
  scan [] run.s_revisions.(p)

let correct_procs run = Failures.correct run.s_pattern

let revisions run p = run.s_revisions.(p)

let broadcasts run = run.s_broadcasts

let broadcast_time run m =
  List.find_map
    (fun (t, _, m') -> if App_msg.equal m m' then Some t else None)
    run.s_broadcasts

(* The times at which p's revision does not extend the one before it. *)
let rollbacks run p =
  let rec scan prev acc = function
    | [] -> List.rev acc
    | (t, seq) :: rest ->
      scan seq (if App_msg.is_prefix prev seq then acc else t :: acc) rest
  in
  scan [] [] run.s_revisions.(p)

(* The latest of [per_proc p] over the correct processes; None if some
   correct process has none. *)
let latest_over_correct run per_proc =
  List.fold_left
    (fun acc p -> Option.bind acc (fun a -> Option.map (max a) (per_proc p)))
    (Some 0) (correct_procs run)

(* [check add p t seq] is called on every revision, by process and then
   time, and [add]s its violations in order. *)
let scan_revisions run check =
  let violations = ref [] in
  let add v = violations := v :: !violations in
  Array.iteri
    (fun p revs -> List.iter (fun (t, seq) -> check add p t seq) revs)
    run.s_revisions;
  of_violations (List.rev !violations)

(* TOB-Validity: a correct broadcaster eventually stably delivers its own
   message (finite-run form: it is in the broadcaster's final d). *)
let check_validity run =
  of_violations
    (List.filter_map
       (fun (t, p, m) ->
          if Failures.is_correct run.s_pattern p
          && not (List.exists (App_msg.equal m) (final_d run p))
          then Some (str "validity: %a broadcast by %a at %d missing from its final d"
                       App_msg.pp m pp_proc p t)
          else None)
       run.s_broadcasts)

(* TOB-No-creation: every delivered message was broadcast no later than its
   delivery.  (Same-tick is allowed: a broadcaster may output its own
   message within the very step that broadcasts it, and the discrete clock
   cannot order events inside one step.) *)
let check_no_creation run =
  scan_revisions run (fun add p t seq ->
      List.iter
        (fun m ->
           match broadcast_time run m with
           | Some tb when tb <= t -> ()
           | Some tb ->
             add (str "no-creation: %a in d_%a at %d but broadcast at %d"
                    App_msg.pp m pp_proc p t tb)
           | None ->
             add (str "no-creation: %a in d_%a at %d was never broadcast"
                    App_msg.pp m pp_proc p t))
        seq)

(* TOB-No-duplication: no message appears twice in any d_i(t). *)
let check_no_duplication run =
  scan_revisions run (fun add p t seq ->
      let ids = List.map App_msg.id seq in
      if List.length (List.sort_uniq App_msg.compare_id ids) <> List.length ids then
        add (str "no-duplication: duplicate in d_%a at %d: %a" pp_proc p t
               App_msg.pp_seq seq))

(* TOB-Agreement (finite-run form): a message in the final d of one correct
   process is in the final d of every correct process. *)
let check_agreement run =
  let correct = correct_procs run in
  let violations = ref [] in
  List.iter
    (fun p ->
       List.iter
         (fun m ->
            List.iter
              (fun q ->
                 if not (List.exists (App_msg.equal m) (final_d run q)) then
                   violations :=
                     str "agreement: %a in final d_%a but not in final d_%a"
                       App_msg.pp m pp_proc p pp_proc q :: !violations)
              correct)
         (final_d run p))
    correct;
  of_violations (List.sort_uniq String.compare (List.rev !violations))

(* The measured ETOB-Stability time: the earliest tau such that for every
   correct process, every revision at time >= tau extends (has as a prefix)
   the previous revision.  0 means the run satisfies strong TOB-Stability. *)
let stability_time run =
  List.fold_left
    (fun tau p -> List.fold_left max tau (rollbacks run p))
    0 (correct_procs run)

(* Relative order of the common messages of two sequences agrees. *)
let orders_agree seq_a seq_b =
  let index seq = List.mapi (fun i m -> (App_msg.id m, i)) seq in
  let ia = index seq_a and ib = index seq_b in
  let common = List.filter (fun (id, _) -> List.mem_assoc id ib) ia in
  let rec pairs = function
    | [] -> true
    | (id1, i1) :: rest ->
      List.for_all
        (fun (id2, i2) ->
           let j1 = List.assoc id1 ib and j2 = List.assoc id2 ib in
           Int.compare i1 i2 = Int.compare j1 j2)
        rest
      && pairs rest
  in
  pairs common

(* The measured ETOB-Total-order time: the earliest tau such that at every
   event time >= tau, all pairs of correct processes order their common
   messages consistently. *)
let total_order_time run =
  let times =
    List.sort_uniq Int.compare
      (Array.to_list run.s_revisions |> List.concat_map (List.map fst))
  in
  let correct = correct_procs run in
  let consistent_at t =
    let rec check = function
      | [] -> true
      | p :: rest ->
        List.for_all (fun q -> orders_agree (d_at run p t) (d_at run q t)) rest
        && check rest
    in
    check correct
  in
  List.fold_left (fun tau t -> if consistent_at t then tau else max tau (t + 1)) 0 times

(* TOB-Causal-Order: in every d_i(t), every dependency of a message that is
   present appears earlier.  The paper requires this at ALL times for
   Algorithm 5 — no tau. *)
let check_causal_order run =
  scan_revisions run (fun add p t seq ->
      let indexed = List.mapi (fun i m -> (App_msg.id m, i)) seq in
      List.iteri
        (fun i m ->
           List.iter
             (fun dep ->
                match List.assoc_opt dep indexed with
                | Some j when j < i -> ()
                | Some _ ->
                  add (str "causal-order: dep %a after %a in d_%a at %d"
                         App_msg.pp_id dep App_msg.pp m pp_proc p t)
                | None -> () (* dependency not delivered: order vacuous *))
             m.App_msg.deps)
        seq)

(* Algorithm 5 additionally delivers dependencies before dependents; checking
   presence is a stronger, implementation-specific property. *)
let check_deps_present run =
  scan_revisions run (fun add p t seq ->
      let ids = App_msg.ids_of_seq seq in
      List.iter
        (fun m ->
           List.iter
             (fun dep ->
                if not (App_msg.Id_set.mem dep ids) then
                  add (str "deps-present: dep %a of %a missing from d_%a at %d"
                         App_msg.pp_id dep App_msg.pp m pp_proc p t))
             m.App_msg.deps)
        seq)

(* The paper assumes broadcast messages are distinct; the (origin, sn)
   identification realizes the assumption as long as no process ever
   re-allocates a sequence number.  A crash-recovered process that lost
   its allocation state (amnesia — e.g. the skip-log-replay mutant of the
   recoverable wrapper) breaks exactly this: it broadcasts a second,
   different message under an already-used id.  We check the assumption
   rather than assume it. *)
let check_distinct_broadcasts run =
  let violations = ref [] in
  let seen = ref App_msg.Id_map.empty in
  List.iter
    (fun (t, p, m) ->
       let id = App_msg.id m in
       match App_msg.Id_map.find_opt id !seen with
       | None -> seen := App_msg.Id_map.add id (t, p) !seen
       | Some (t0, p0) ->
         violations :=
           str "distinct-broadcasts: id %a broadcast by %a at %d and again \
                by %a at %d (sequence number reused)"
             App_msg.pp_id id pp_proc p0 t0 pp_proc p t :: !violations)
    run.s_broadcasts;
  of_violations (List.rev !violations)

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

let etob_report run =
  { validity = check_validity run;
    no_creation = check_no_creation run;
    no_duplication = check_no_duplication run;
    agreement = check_agreement run;
    causal_order = check_causal_order run;
    distinct_broadcasts = check_distinct_broadcasts run;
    tau_stability = stability_time run;
    tau_total_order = total_order_time run }

(* A report's six verdicts, each with the name it is printed under. *)
let named_verdicts r =
  [ ("validity", r.validity);
    ("no-creation", r.no_creation);
    ("no-duplication", r.no_duplication);
    ("agreement", r.agreement);
    ("causal-order", r.causal_order);
    ("distinct-broadcasts", r.distinct_broadcasts) ]

let etob_base_ok r =
  r.validity.ok && r.no_creation.ok && r.no_duplication.ok && r.agreement.ok

(* The run satisfies the full (strong) TOB specification. *)
let is_strong_tob r = etob_base_ok r && r.tau_stability = 0 && r.tau_total_order = 0

let etob_convergence_time r = max r.tau_stability r.tau_total_order

(* Flatten a report into the list of violated properties, as the explorer
   consumes it.  [tau_bound] is the largest admissible convergence time for
   the run's adversity plan: 0 for a plan with no leader flapping (every
   adoption is a same-lineage promote from the stable leader, so strong
   stability/total-order must hold), or the plan's settle time plus slack
   otherwise.  [None] skips the tau check (eventual-only mode). *)
let etob_violations ?tau_bound r =
  let base =
    (* Some checkers already lead their messages with their own name. *)
    let tag name msg =
      let prefix = name ^ ":" in
      if String.length msg >= String.length prefix
         && String.sub msg 0 (String.length prefix) = prefix
      then msg
      else Printf.sprintf "%s: %s" name msg
    in
    List.concat_map
      (fun (name, v) -> List.map (tag name) v.violations)
      (named_verdicts r)
  in
  let tau =
    match tau_bound with
    | None -> []
    | Some bound ->
      let check name t =
        if t > bound then
          [ Printf.sprintf "%s: tau=%d exceeds bound %d" name t bound ]
        else []
      in
      check "tau-stability" r.tau_stability
      @ check "tau-total-order" r.tau_total_order
  in
  base @ tau

let pp_etob_report ppf r =
  Fmt.pf ppf "@[<v>%a@,tau(stability)=%d tau(total-order)=%d@]"
    (Fmt.list (fun ppf (name, v) -> Fmt.pf ppf "%s: %a" name pp_verdict v))
    (named_verdicts r) r.tau_stability r.tau_total_order

(* The time by which every correct process has stably delivered m: the
   earliest t such that m is in d_p(t') for every correct p and t' >= t.
   None if some correct process never (stably) delivers m. *)
let stable_delivery_time run m =
  let per_proc p =
    let rec last_absent best = function
      | [] -> best
      | (t, seq) :: rest ->
        if List.exists (App_msg.equal m) seq then last_absent best rest
        else last_absent (Some t) rest
    in
    let rec first_present = function
      | [] -> None
      | (t, seq) :: rest ->
        if List.exists (App_msg.equal m) seq then Some t else first_present rest
    in
    match first_present run.s_revisions.(p), last_absent None run.s_revisions.(p) with
    | None, _ -> None
    | Some tp, None -> Some tp
    | Some tp, Some ta ->
      if ta < tp then Some tp
      else
        (* present, later absent: first presence AFTER the last absence. *)
        List.find_map
          (fun (t, seq) ->
             if t > ta && List.exists (App_msg.equal m) seq then Some t else None)
          run.s_revisions.(p)
  in
  latest_over_correct run per_proc

(* The defining property of the commit indication: a committed prefix is
   never rolled back — every announcement extends the previous one. *)
let check_commit_stability run =
  of_violations
    (List.concat_map
       (fun p ->
          List.map
            (fun t -> str "commit-stability: commitment at %a revised at %d" pp_proc p t)
            (rollbacks run p))
       (all_procs (Array.length run.s_revisions)))

let final_committed = final

(* Committed prefixes must be prefixes of what is eventually delivered. *)
let check_commit_consistent run etob =
  let violations = ref [] in
  List.iter
    (fun p ->
       let committed = final_committed run p in
       List.iter
         (fun q ->
            if not (App_msg.is_prefix committed (final_d etob q)) then
              violations :=
                str "commit-consistency: %a's committed prefix is not a prefix of \
                     final d_%a" pp_proc p pp_proc q :: !violations)
         (correct_procs etob))
    (correct_procs run);
  of_violations (List.rev !violations)

(* The time by which every correct process knows m committed; None if some
   correct process never learns it. *)
let commit_time run m =
  latest_over_correct run (fun p ->
      List.find_map
        (fun (t, seq) -> if List.exists (App_msg.equal m) seq then Some t else None)
        run.s_revisions.(p))

let committed_count run p = List.length (final_committed run p)

(* ------------------------------------------------------------------ *)
(* Decision histories: EC, and EIC (Appendix A)                        *)
(* ------------------------------------------------------------------ *)

(* EC and EIC read the same history and differ only in what they require
   of it: agreement, or eventual integrity. *)
type decision_history = {
  d_pattern : Failures.pattern;
  (* Chronological (time, process, instance, value) entries. *)
  d_proposals : (time * proc_id * int * Value.t) list;
  d_decisions : (time * proc_id * int * Value.t) list;
}

let decisions_of_trace pattern trace ~proposed ~decided =
  let outputs = Trace.outputs trace in
  let pick keep =
    List.filter_map
      (fun (t, p, o) -> Option.map (fun (l, v) -> (t, p, l, v)) (keep o))
      outputs
  in
  { d_pattern = pattern; d_proposals = pick proposed; d_decisions = pick decided }

let ec_run_of_trace ?(layer = Ec_intf.default_layer) pattern trace =
  decisions_of_trace pattern trace
    ~proposed:(function
      | Ec_intf.Proposed_ec { layer = l; instance; value } when l = layer ->
        Some (instance, value)
      | _ -> None)
    ~decided:(function
      | Ec_intf.Decide_ec { layer = l; instance; value } when l = layer ->
        Some (instance, value)
      | _ -> None)

let eic_run_of_trace pattern trace =
  decisions_of_trace pattern trace
    ~proposed:(function
      | Eic_intf.Proposed_eic { instance; value } -> Some (instance, value)
      | _ -> None)
    ~decided:(function
      | Eic_intf.Decide_eic { instance; value } -> Some (instance, value)
      | _ -> None)

let decided_instances run =
  List.sort_uniq Int.compare (List.map (fun (_, _, l, _) -> l) run.d_decisions)

(* How many times each process responded to each instance. *)
let response_counts run =
  let counts = Hashtbl.create 64 in
  List.iter
    (fun (_, p, l, _) ->
       let c = Option.value ~default:0 (Hashtbl.find_opt counts (p, l)) in
       Hashtbl.replace counts (p, l) (c + 1))
    run.d_decisions;
  counts

(* Validity: every response value was proposed to the same instance.
   [prop] names the property ("ec"/"eic") and [verb] the response. *)
let check_proposed ~prop ~verb run =
  of_violations
    (List.filter_map
       (fun (t, p, l, v) ->
          let proposed =
            List.exists (fun (_, _, l', v') -> l = l' && Value.equal v v')
              run.d_proposals
          in
          if proposed then None
          else Some (str "%s-validity: %a %s %a for instance %d at %d, never proposed"
                       prop pp_proc p verb Value.pp v l t))
       run.d_decisions)

(* Termination (finite-run form): every correct process responded at least
   once to every instance in [1, instances]. *)
let check_responded ~prop ~verb run ~instances =
  let violations = ref [] in
  List.iter
    (fun p ->
       for l = 1 to instances do
         if not (List.exists (fun (_, p', l', _) -> p' = p && l' = l) run.d_decisions)
         then violations := str "%s-termination: %a never %s instance %d"
             prop pp_proc p verb l :: !violations
       done)
    (Failures.correct run.d_pattern);
  of_violations (List.rev !violations)

(* EC-Integrity: no process responds twice to the same instance. *)
let check_ec_integrity run =
  let seen = Hashtbl.create 64 in
  let violations = ref [] in
  List.iter
    (fun (t, p, l, _) ->
       if Hashtbl.mem seen (p, l) then
         violations := str "ec-integrity: %a decided instance %d twice (at %d)"
             pp_proc p l t :: !violations
       else Hashtbl.add seen (p, l) ())
    run.d_decisions;
  of_violations (List.rev !violations)

(* The measured EC-Agreement index: the smallest k such that all decisions
   for every instance >= k agree.  1 means agreement from the start. *)
let ec_agreement_index run =
  let disagreeing l =
    let values =
      List.filter_map (fun (_, _, l', v) -> if l = l' then Some v else None)
        run.d_decisions
    in
    match values with
    | [] -> false
    | v :: rest -> List.exists (fun v' -> not (Value.equal v v')) rest
  in
  List.fold_left (fun k l -> if disagreeing l then max k (l + 1) else k) 1
    (decided_instances run)

type ec_report = {
  integrity : verdict;
  ec_validity : verdict;
  termination : verdict;
  agreement_index : int;
}

let ec_report run ~instances =
  { integrity = check_ec_integrity run;
    ec_validity = check_proposed ~prop:"ec" ~verb:"decided" run;
    termination = check_responded ~prop:"ec" ~verb:"decided" run ~instances;
    agreement_index = ec_agreement_index run }

let ec_ok ?(agreement_by = max_int) r =
  r.integrity.ok && r.ec_validity.ok && r.termination.ok
  && r.agreement_index <= agreement_by

let pp_ec_report ppf r =
  Fmt.pf ppf "@[<v>integrity: %a@,validity: %a@,termination: %a@,agreement from k=%d@]"
    pp_verdict r.integrity pp_verdict r.ec_validity pp_verdict r.termination
    r.agreement_index

(* The final (= last) response of p to instance l, if any. *)
let eic_final_response run p l =
  List.fold_left
    (fun acc (_, p', l', v) -> if p = p' && l = l' then Some v else acc)
    None run.d_decisions

(* The measured EIC-Integrity index: smallest k such that no process
   responds twice to any instance >= k. *)
let eic_integrity_index run =
  (* detlint: sorted — max over bindings is order-insensitive *)
  Hashtbl.fold (fun (_, l) c k -> if c > 1 then max k (l + 1) else k)
    (response_counts run) 1

let eic_revocation_count run =
  (* detlint: sorted — sum over bindings is order-insensitive *)
  Hashtbl.fold (fun _ c acc -> acc + max 0 (c - 1)) (response_counts run) 0

(* EIC-Agreement (finite-run form): the final responses of correct processes
   agree on every instance they have all responded to. *)
let check_eic_agreement run =
  let correct = Failures.correct run.d_pattern in
  let violations = ref [] in
  List.iter
    (fun l ->
       let finals = List.map (fun p -> eic_final_response run p l) correct in
       if List.for_all (fun v -> v <> None) finals then
         match finals with
         | Some v :: rest ->
           if List.exists (function Some v' -> not (Value.equal v v') | None -> false) rest
           then violations := str "eic-agreement: final responses differ for instance %d" l
               :: !violations
         | _ -> ())
    (decided_instances run);
  of_violations (List.rev !violations)

let check_eic_validity run = check_proposed ~prop:"eic" ~verb:"responded" run

let check_eic_termination run ~instances =
  check_responded ~prop:"eic" ~verb:"responded to" run ~instances
