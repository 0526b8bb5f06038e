(* Tests for adversarial exploration: adversity plans and their stable
   text form, the engine's link-fault injection, exploration of a builder
   template with its greedy shrinker, findings as spec text and their
   replay verdict, and the property-based checks exploration rests on
   (causal order under arbitrary adversity, differential agreement across
   the three ETOB stacks). *)

open Simulator
open Ec_core
module Stacks = Harness.Stacks
module Adversity = Harness.Adversity
module Builder = Harness.Builder

(* ------------------------------------------------------------------ *)
(* Adversity: text form                                                *)
(* ------------------------------------------------------------------ *)

let full_plan =
  [ Adversity.Crash { proc = 2; at = 40 };
    Adversity.Partition { left = [ 0; 1 ]; from_time = 10; until_time = 50 };
    Adversity.Delay_spike
      { link = Some (1, 2); from_time = 5; until_time = 25; factor = 4 };
    Adversity.Delay_spike
      { link = None; from_time = 30; until_time = 42; factor = 2 };
    Adversity.Drop { from_time = 20; until_time = 26; pct = 75 };
    Adversity.Duplicate { from_time = 12; until_time = 18; copies = 2 };
    Adversity.Omega_flap { until_time = 60; period = 3 } ]

let test_adversity_roundtrip () =
  match Adversity.of_lines (Adversity.to_lines full_plan) with
  | Error e -> Alcotest.fail ("parse failed: " ^ e)
  | Ok plan ->
    Alcotest.(check bool) "all spec kinds roundtrip" true (plan = full_plan)

let test_adversity_rejects_garbage () =
  (match Adversity.of_line "crash p=zero at=40" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "bad int accepted");
  match Adversity.of_line "meteor at=40" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown adversity accepted"

let prop_adversity_roundtrip =
  QCheck.Test.make ~name:"adversity: text form roundtrips" ~count:300
    (Qgen.plan_arb ~n:4 ~deadline:240)
    (fun plan ->
       match Adversity.of_lines (Adversity.to_lines plan) with
       | Ok plan' -> plan' = plan
       | Error _ -> false)

(* Weakening must strictly reduce the plan's reach: never later, never
   stronger — so the shrinker terminates and results stay minimal. *)
let prop_weaken_never_extends_settle =
  QCheck.Test.make ~name:"adversity: weaken never raises settle time" ~count:300
    (Qgen.plan_arb ~n:4 ~deadline:240)
    (fun plan ->
       let settle = Adversity.settle_time ~base_max:3 plan in
       List.for_all
         (fun spec ->
            List.for_all
              (fun weaker ->
                 Adversity.settle_time ~base_max:3 [ weaker ] <= settle)
              (Adversity.weaken spec))
         plan)

(* A delay spike scales only the base delay, whatever its place in the
   plan: listed after a partition it must not multiply the partition's
   hold-back.  Both orders of this pair (a soak finding, engine seed 567)
   give the same run, and that run is clean. *)
let test_spike_order_irrelevant () =
  let partition =
    Adversity.Partition { left = [ 1; 2; 3 ]; from_time = 41; until_time = 92 }
  in
  let spike =
    Adversity.Delay_spike
      { link = None; from_time = 39; until_time = 42; factor = 6 }
  in
  let run plan =
    Builder.run ~digest:true ~catch:true
      (Builder.with_plan ~seed:567
         (Builder.template Stacks.Algorithm_5)
         plan)
  in
  let a = run [ partition; spike ] and b = run [ spike; partition ] in
  Alcotest.(check string) "same digest" b.Builder.digest a.Builder.digest;
  Alcotest.(check (list string)) "partition first: clean" [] a.Builder.violations;
  Alcotest.(check (list string)) "spike first: clean" [] b.Builder.violations

(* ------------------------------------------------------------------ *)
(* Link faults in the engine                                           *)
(* ------------------------------------------------------------------ *)

let fault_setup faults =
  { (Stacks.default ~n:3 ~deadline:100) with
    faults;
    delay = Net.uniform ~min:1 ~max:3 }

let fault_inputs = Stacks.spread_posts ~n:3 ~count:6 ~from_time:8 ~every:3

let run_with_faults faults =
  Stacks.run_etob ~inputs:fault_inputs (fault_setup faults)
    Stacks.Algorithm_5

let test_no_faults_instantiates_to_none () =
  (match Net.instantiate_faults Net.no_faults with
   | None -> ()
   | Some _ -> Alcotest.fail "no_faults must instantiate to None");
  match Net.instantiate_faults (Net.compose_faults [ Net.no_faults ]) with
  | None -> ()
  | Some _ -> Alcotest.fail "compose of no_faults must stay no_faults"

let test_drop_window_drops () =
  let clean = run_with_faults Net.no_faults in
  let dropped =
    run_with_faults (Net.drop_window ~from_time:0 ~until_time:40 100)
  in
  Alcotest.(check int) "clean run drops nothing" 0 (Trace.dropped clean);
  Alcotest.(check bool) "faulted run drops" true (Trace.dropped dropped > 0);
  Alcotest.(check bool) "fewer deliveries" true
    (Trace.delivered dropped < Trace.delivered clean)

let test_duplicate_window_duplicates () =
  let clean = run_with_faults Net.no_faults in
  let dup =
    run_with_faults (Net.duplicate_window ~from_time:0 ~until_time:40 2)
  in
  Alcotest.(check bool) "more deliveries than sends" true
    (Trace.delivered dup > Trace.sent dup);
  Alcotest.(check bool) "more deliveries than the clean run" true
    (Trace.delivered dup > Trace.delivered clean)

let test_fault_runs_deterministic () =
  let faults =
    Net.compose_faults
      [ Net.drop_window ~from_time:10 ~until_time:30 50;
        Net.duplicate_window ~from_time:20 ~until_time:45 1 ]
  in
  let show t = Format.asprintf "%a" Trace.pp t in
  Alcotest.(check string) "same config, same trace"
    (show (run_with_faults faults))
    (show (run_with_faults faults))

let test_compose_faults_drop_wins () =
  let always f = Net.fault_of_fn (fun ~src:_ ~dst:_ ~now:_ ~rng:_ -> f) in
  let composed =
    Net.compose_faults [ always (Net.Duplicate 2); always Net.Drop ]
  in
  match Net.instantiate_faults composed with
  | None -> Alcotest.fail "composed model is not no_faults"
  | Some fn ->
    let rng = Rng.create 1 in
    (match Net.fault_of fn ~src:0 ~dst:1 ~now:5 ~rng with
     | Net.Drop -> ()
     | _ -> Alcotest.fail "Drop must win over Duplicate")

(* ------------------------------------------------------------------ *)
(* Explorer                                                            *)
(* ------------------------------------------------------------------ *)

let alg5 = Builder.template Stacks.Algorithm_5
let target mutation = { alg5 with Builder.mutation }

let explore ?domains ~budget t =
  Builder.explore ?domains t ~seed:1 ~budget ~max_adversities:4

let plan_of (o : Builder.outcome) = o.Builder.builder.Builder.plan

let test_explore_faithful_clean () =
  let e = explore (target None) ~budget:60 in
  (match e.Builder.found with
   | None -> ()
   | Some o ->
     Alcotest.failf "faithful Algorithm 5 flagged: %s; plan: %s"
       (String.concat "; " o.Builder.violations)
       (String.concat "; " (Adversity.to_lines (plan_of o))));
  Alcotest.(check int) "whole budget consumed" 60 e.Builder.plans_run

let test_explore_parallel_matches_sequential () =
  let mutant = target (Some Etob_omega.Skip_dependency_wait) in
  let run domains = explore ~domains mutant ~budget:120 in
  let seq = run 1 and par = run 3 in
  match seq.Builder.found, par.Builder.found with
  | Some a, Some b ->
    Alcotest.(check int) "same engine seed"
      a.Builder.builder.base.seed
      b.Builder.builder.base.seed;
    Alcotest.(check bool) "same plan" true (plan_of a = plan_of b);
    Alcotest.(check int) "same plan index" seq.Builder.plans_run
      par.Builder.plans_run
  | _ -> Alcotest.fail "mutant not found within budget"

(* Shrink a finding and replay it from its spec text through the one
   replay verdict: the violation must survive, the plan must be small,
   and the digest must reproduce. *)
let shrink_and_replay name t o =
  let shrunk = Builder.shrink t o in
  Alcotest.(check bool) (name ^ ": still violates") true
    (shrunk.Builder.violations <> []);
  Alcotest.(check bool) (name ^ ": shrunk to <= 3 adversities") true
    (Adversity.size (plan_of shrunk) <= 3);
  (match Builder.replay (Builder.finding_text shrunk) with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "%s: replay: %s" name e);
  shrunk

(* The mutation-test harness: every seeded single-decision bug of
   Algorithm 5 must be caught within a smoke-sized budget, shrink to at
   most 3 adversities, and leave a finding that replays byte-identically
   from its spec text. *)
let test_explore_finds_all_mutants () =
  List.iter
    (fun m ->
       let name = Etob_omega.mutation_name m in
       let t = target (Some m) in
       match (explore t ~budget:200).Builder.found with
       | None -> Alcotest.failf "mutant %s not found within 200 plans" name
       | Some o -> ignore (shrink_and_replay name t o))
    Etob_omega.all_mutations

let test_repro_replay_rejects_wrong_digest () =
  let t = target (Some Etob_omega.Drop_graph_union) in
  match (explore t ~budget:200).Builder.found with
  | None -> Alcotest.fail "mutant not found"
  | Some o ->
    let text =
      Builder.to_string ~digest:(String.make 32 '0')
        ~violations:o.Builder.violations o.Builder.builder
    in
    (match Builder.replay text with
     | Error _ -> ()
     | Ok _ -> Alcotest.fail "digest mismatch must fail the replay")

(* [explore -o F.spec] then [explore --spec F.spec]: the written finding,
   read back as a template, explores to the same plan index and the same
   shrunk digest under the same seed and budget. *)
let test_spec_finding_reexplores () =
  let t = target (Some Etob_omega.Skip_dependency_wait) in
  let e = explore t ~budget:200 in
  match e.Builder.found with
  | None -> Alcotest.fail "mutant not found"
  | Some o ->
    let shrunk = Builder.shrink t o in
    let path = Filename.temp_file "finding" ".spec" in
    Builder.write_finding path shrunk;
    let t' =
      match Result.bind (Builder.read path) Builder.explorable with
      | Ok t' -> t'
      | Error msg -> Alcotest.failf "written finding not explorable: %s" msg
    in
    Sys.remove path;
    let e' = explore t' ~budget:200 in
    (match e'.Builder.found with
     | None -> Alcotest.fail "re-exploration lost the finding"
     | Some o' ->
       Alcotest.(check int) "same plan index" e.Builder.plans_run
         e'.Builder.plans_run;
       Alcotest.(check string) "same digest" o.Builder.digest o'.Builder.digest;
       Alcotest.(check string) "same shrunk digest" shrunk.Builder.digest
         (Builder.shrink t' o').Builder.digest)

(* ------------------------------------------------------------------ *)
(* Recovery: exploration, spec text, parse errors                      *)
(* ------------------------------------------------------------------ *)

(* The recovery analogue of the mutation-test harness: restarting with
   amnesia must be caught within a smoke-sized budget, shrink small, and
   leave a replayable finding (whose spec text keeps the recoverable
   stack and the recovery mutant). *)
let test_explore_finds_recovery_mutants () =
  List.iter
    (fun m ->
       let name = Recoverable.mutation_name m in
       let t =
         { (Builder.template ~recovery:true Stacks.Algorithm_5) with
           Builder.rmutation = Some m }
       in
       match (explore t ~budget:200).Builder.found with
       | None -> Alcotest.failf "mutant %s not found within 200 plans" name
       | Some o ->
         let shrunk = shrink_and_replay name t o in
         (match Builder.of_string (Builder.finding_text shrunk) with
          | Error e -> Alcotest.failf "%s: spec parse: %s" name e
          | Ok reread ->
            Alcotest.(check bool) (name ^ ": recoverable stack survives") true
              (match reread.Builder.stack with
               | Builder.Recoverable _ -> true
               | _ -> false);
            Alcotest.(check bool) (name ^ ": rmutant survives") true
              (reread.Builder.rmutation = Some m)))
    Recoverable.all_mutations

(* A faithful run under a recovery plan must stay clean — the generated
   recovery adversities themselves are not violations. *)
let test_explore_faithful_recovery_clean () =
  let t = Builder.template ~recovery:true Stacks.Algorithm_5 in
  match (explore t ~budget:60).Builder.found with
  | None -> ()
  | Some o ->
    Alcotest.failf "faithful recoverable stack flagged: %s; plan: %s"
      (String.concat "; " o.Builder.violations)
      (String.concat "; " (Adversity.to_lines (plan_of o)))

(* Malformed and truncated recovery findings fail in [Builder.of_string]
   with the offending line named, never an escaping exception. *)
let test_repro_parse_errors_name_the_line () =
  let text =
    String.concat "\n"
      [ "ecsim-spec v1"; "stack recoverable"; "n 4"; "seed 7";
        "deadline 240"; "timer-period 2"; "delay uniform min=1 max=3";
        "workload auto count=12 stretch=on"; "rmutant skip-log-replay";
        "check etob tau=auto"; "digest " ^ String.make 32 'a';
        "violation distinct-broadcasts: something"; "plan 2";
        "crashrec p=1 at=40 until=80"; "disk p=1 kind=torn"; "end" ]
  in
  (* The well-formed file parses to the recovery builder it describes. *)
  (match Builder.of_string text with
   | Ok b ->
     Alcotest.(check bool) "parsed" true
       (b.Builder.plan
        = [ Adversity.Crash_recover { proc = 1; at = 40; recover_at = 80 };
            Adversity.Disk_fault { proc = 1; kind = Persist.Store.Torn_tail } ]
        && b.Builder.base.seed = 7
        && b.Builder.stack = Builder.Recoverable { ae = false }
        && b.Builder.workload
           = Builder.Auto_posts { count = 12; stretch = true }
        && b.Builder.rmutation = Some Recoverable.Skip_log_replay)
   | Error e -> Alcotest.failf "well-formed file rejected: %s" e);
  let expect_error label mangled fragment =
    match Builder.of_string mangled with
    | Ok _ -> Alcotest.failf "%s: accepted" label
    | Error msg ->
      let contains s sub =
        let n = String.length s and m = String.length sub in
        let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
        m = 0 || go 0
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %S names the problem (%S)" label msg fragment)
        true (contains msg fragment)
  in
  expect_error "empty file" "" "empty file";
  expect_error "wrong header" "not a repro\nimpl alg5\n" "line 1";
  (* The retired pre-builder finding format is no longer read. *)
  expect_error "retired header"
    "ecsim-explore-repro v1\nimpl alg5\nplan 0\nend\n" "line 1";
  let lines = String.split_on_char '\n' text in
  let mangle i f =
    String.concat "\n" (List.mapi (fun j l -> if j = i then f l else l) lines)
  in
  (* Line 3 is "n 4": break its integer and expect the line number. *)
  expect_error "bad integer" (mangle 2 (fun _ -> "n four")) "line 3";
  expect_error "unknown line" (mangle 6 (fun _ -> "meteor 9")) "line 7";
  (* Claim more plan lines than the file holds. *)
  expect_error "truncated plan"
    (String.concat "\n"
       (List.map (fun l -> if l = "plan 2" then "plan 5" else l) lines))
    "plan section truncated";
  (* Drop the end line. *)
  expect_error "missing end"
    (String.concat "\n" (List.filter (fun l -> l <> "end") lines))
    "missing end";
  (* Damage one adversity line inside the plan section. *)
  expect_error "bad adversity"
    (String.concat "\n"
       (List.map
          (fun l ->
             if String.length l >= 8 && String.sub l 0 8 = "crashrec"
             then "crashrec p=1 at=80 until=40"
             else l)
          lines))
    "line"

(* ------------------------------------------------------------------ *)
(* Safety under arbitrary adversity (property-based)                   *)
(* ------------------------------------------------------------------ *)

(* Causal order is a safety claim of Algorithm 5 ("TOB-Causal-Order holds
   at all times"): it may not depend on fairness, so the plans here are
   unclamped — drops that never heal, flapping to the horizon.  Liveness
   properties (validity, convergence) legitimately fail under such plans
   and are not asserted. *)
let prop_causal_order_under_any_plan =
  QCheck.Test.make ~name:"alg5: causal order under arbitrary adversity"
    ~count:60
    QCheck.(
      pair (Qgen.plan_arb ~n:4 ~deadline:240) (pair small_nat Qgen.delay_bounds_arb))
    (fun (plan, (seed, (min_d, max_d))) ->
       let t =
         Builder.template ~delay:(Builder.Uniform { min_d; max_d })
           Stacks.Algorithm_5
       in
       let o = Builder.run ~catch:true (Builder.with_plan ~seed t plan) in
       match o.Builder.report with
       | None -> false (* the run raised *)
       | Some r ->
         r.Properties.causal_order.Properties.ok
         && r.Properties.no_creation.Properties.ok
         && r.Properties.no_duplication.Properties.ok)

(* The recoverable stack's safety net: under arbitrary downtime windows
   and disk faults (on top of the usual unclamped adversity), the
   faithful stack must never reorder causally, forge, duplicate — or
   reuse a sequence number, which is exactly what the durable log is for.
   Liveness is legitimately lost under such plans and is not asserted. *)
let prop_recovery_safety_under_any_plan =
  QCheck.Test.make
    ~name:"recoverable alg5: safety under arbitrary windows and disk faults"
    ~count:40
    QCheck.(
      pair
        (Qgen.recovery_plan_arb ~n:4 ~deadline:240)
        (pair small_nat Qgen.delay_bounds_arb))
    (fun (plan, (seed, (min_d, max_d))) ->
       let t =
         Builder.template ~recovery:true
           ~delay:(Builder.Uniform { min_d; max_d })
           Stacks.Algorithm_5
       in
       let o = Builder.run ~catch:true (Builder.with_plan ~seed t plan) in
       match o.Builder.report with
       | None -> false (* the run raised *)
       | Some r ->
         r.Properties.causal_order.Properties.ok
         && r.Properties.no_creation.Properties.ok
         && r.Properties.no_duplication.Properties.ok
         && r.Properties.distinct_broadcasts.Properties.ok)

(* Random failure patterns stay inside their declared contract. *)
let prop_random_pattern_within_contract =
  QCheck.Test.make ~name:"failures: crash lists build admitted patterns"
    ~count:300
    (Qgen.crash_list_arb ~n:5 ~max_faulty:4 ~horizon:100)
    (fun crashes ->
       let f = Qgen.pattern_of_crashes ~n:5 crashes in
       Failures.admits (Failures.t_resilient 4) f
       && Failures.is_correct f 0
       && List.for_all
            (fun (p, _) -> Failures.is_faulty f p)
            crashes)

(* ------------------------------------------------------------------ *)
(* Differential: the three ETOB stacks agree                           *)
(* ------------------------------------------------------------------ *)

let impls =
  [ Stacks.Algorithm_5; Stacks.Paxos_baseline; Stacks.Algorithm_1_over_4 ]

let final_run impl ~seed =
  let t = Builder.with_plan ~seed (Builder.template impl) [] in
  let setup = Builder.setup_of t in
  let trace = Stacks.run_etob ~inputs:(Builder.inputs t) setup impl in
  Properties.etob_run_of_trace setup.Stacks.pattern trace

let sorted_ids run proc =
  List.sort compare (List.map App_msg.id (Properties.final_d run proc))

(* Within one stack, every pair of processes orders the common messages
   the same way; across stacks, the delivered sets coincide (the total
   orders themselves may differ — any linearization is legal). *)
let prop_impls_agree_differentially =
  QCheck.Test.make ~name:"etob stacks: orders agree, delivered sets equal"
    ~count:10 QCheck.small_nat
    (fun seed ->
       let runs = List.map (fun impl -> final_run impl ~seed) impls in
       let n = alg5.Builder.base.n in
       List.for_all
         (fun run ->
            List.for_all
              (fun p ->
                 List.for_all
                   (fun q ->
                      Properties.orders_agree (Properties.final_d run p)
                        (Properties.final_d run q))
                   (List.init n Fun.id))
              (List.init n Fun.id))
         runs
       &&
       match List.map (fun run -> sorted_ids run 0) runs with
       | [] -> false
       | ids :: rest -> List.for_all (fun other -> other = ids) rest)

let test_impls_clean_on_empty_plan () =
  List.iter
    (fun impl ->
       let t = Builder.template impl in
       let o = Builder.run ~catch:true (Builder.with_plan ~seed:1 t []) in
       Alcotest.(check (list string))
         (Builder.stack_name t.Builder.stack ^ ": clean on the empty plan") []
         o.Builder.violations)
    impls

(* ------------------------------------------------------------------ *)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "explore"
    [ ("adversity",
       [ Alcotest.test_case "roundtrip all kinds" `Quick test_adversity_roundtrip;
         Alcotest.test_case "rejects garbage" `Quick test_adversity_rejects_garbage ]
       @ qc [ prop_adversity_roundtrip; prop_weaken_never_extends_settle ]
       @ [ Alcotest.test_case "spike order irrelevant" `Quick
             test_spike_order_irrelevant ]);
      ("faults",
       [ Alcotest.test_case "no_faults is free" `Quick
           test_no_faults_instantiates_to_none;
         Alcotest.test_case "drop window" `Quick test_drop_window_drops;
         Alcotest.test_case "duplicate window" `Quick
           test_duplicate_window_duplicates;
         Alcotest.test_case "deterministic" `Quick test_fault_runs_deterministic;
         Alcotest.test_case "compose: drop wins" `Quick
           test_compose_faults_drop_wins ]);
      ("explorer",
       [ Alcotest.test_case "faithful clean" `Quick test_explore_faithful_clean;
         Alcotest.test_case "parallel matches sequential" `Quick
           test_explore_parallel_matches_sequential;
         Alcotest.test_case "finds all mutants" `Quick
           test_explore_finds_all_mutants;
         Alcotest.test_case "replay rejects wrong digest" `Quick
           test_repro_replay_rejects_wrong_digest;
         Alcotest.test_case "spec finding re-explores to itself" `Quick
           test_spec_finding_reexplores ]);
      ("recovery",
       [ Alcotest.test_case "finds recovery mutants" `Quick
           test_explore_finds_recovery_mutants;
         Alcotest.test_case "faithful recovery clean" `Quick
           test_explore_faithful_recovery_clean;
         Alcotest.test_case "repro parse errors name the line" `Quick
           test_repro_parse_errors_name_the_line ]
       @ qc [ prop_recovery_safety_under_any_plan ]);
      ("properties",
       qc
         [ prop_causal_order_under_any_plan;
           prop_random_pattern_within_contract ]);
      ("differential",
       [ Alcotest.test_case "clean on empty plan" `Quick
           test_impls_clean_on_empty_plan ]
       @ qc [ prop_impls_agree_differentially ]);
    ]
