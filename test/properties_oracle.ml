(* Test oracle: Properties' ETOB and commit-prefix checkers, and
   Harness.Watchdog, as they were written before they read each revision
   of d_i as its delta.  Every revision is a list; the checkers scan each
   revision whole, [total_order_time] re-reads d_i at every revision time
   for every pair of correct processes and compares their orders through
   assoc lists, and the watchdog builds the id-set of every revision.
   test_builder (random runs) and test_core (hand-built traces) run it
   beside [Properties] and [Harness.Watchdog] and require equal reports.
   The code is the old code; only the verdict, report and watchdog types
   are re-exported, so that the two sides compare. *)

open Simulator
open Simulator.Types
open Ec_core

type verdict = Properties.verdict = { ok : bool; violations : string list }

let of_violations violations = { ok = violations = []; violations }

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

type etob_report = Properties.etob_report = {
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

(* Harness.Watchdog, over the list history above. *)
module Watchdog = struct
  type laggard = Harness.Watchdog.laggard = {
    proc : proc_id;
    last_progress : time;  (* last d-revision that grew the id-set; -1 if none *)
    missing : int;  (* target messages absent from the final d *)
  }

  type verdict = Harness.Watchdog.verdict =
    | Converged of { at : time }
    | Stalled of { deadline : time; laggards : laggard list }

  let ids_of seq = App_msg.ids_of_seq seq

  (* The union, over correct processes, of everything finally delivered AND
     everything broadcast.  Including broadcasts matters: Algorithm 5's
     leader re-teaches d through periodic promotes, so a process can only
     stall on a message the leader itself never learned — a correct poster's
     broadcast swallowed by a lossy partition.  Such a message is in no d at
     all; a final-d union would silently shrink the target around exactly
     the stall the watchdog exists to flag. *)
  let target run =
    let correct = correct_procs run in
    let delivered =
      List.fold_left
        (fun acc p -> App_msg.Id_set.union acc (ids_of (final_d run p)))
        App_msg.Id_set.empty correct
    in
    List.fold_left
      (fun acc (_, p, m) ->
         if List.mem p correct then App_msg.Id_set.add (App_msg.id m) acc
         else acc)
      delivered (broadcasts run)

  (* The first revision time from which p's id-set covers [tgt] and keeps
     covering it for the rest of the run; None if it never (stably) does. *)
  let reached run tgt p =
    List.fold_left
      (fun acc (t, seq) ->
         if App_msg.Id_set.subset tgt (ids_of seq) then
           match acc with None -> Some t | some -> some
         else None)
      None (revisions run p)

  (* The last revision that strictly grew p's id-set; -1 if none ever did. *)
  let last_progress run p =
    let _, t =
      List.fold_left
        (fun (known, last) (t, seq) ->
           let ids = ids_of seq in
           if App_msg.Id_set.cardinal ids > known
           then (App_msg.Id_set.cardinal ids, t)
           else (known, last))
        (0, -1) (revisions run p)
    in
    t

  let check ~settle ~bound run =
    let deadline = settle + bound in
    let tgt = target run in
    let correct = correct_procs run in
    let late =
      List.filter_map
        (fun p ->
           match reached run tgt p with
           | Some t when t <= deadline -> None
           | _ ->
             Some
               { proc = p;
                 last_progress = last_progress run p;
                 missing =
                   App_msg.Id_set.cardinal
                     (App_msg.Id_set.diff tgt (ids_of (final_d run p))) })
        correct
    in
    if late = [] then
      let at =
        List.fold_left
          (fun acc p ->
             match reached run tgt p with Some t -> max acc t | None -> acc)
          0 correct
      in
      Converged { at }
    else Stalled { deadline; laggards = late }
end
