(* Tests for the strong-consistency baseline (Paxos-based total order
   broadcast): safety in all runs, strong TOB when live, three-step
   latency, and unavailability without a correct majority — the Sigma gap
   the paper isolates. *)

open Simulator
open Ec_core

let oracle ?(pre = Detectors.Omega.Self_trust) stabilize_at =
  Harness.Stacks.Oracle { stabilize_at; pre }

let run_paxos ?(inputs = []) setup =
  let trace = Harness.Stacks.run_etob ~inputs setup Harness.Stacks.Paxos_baseline in
  (Properties.etob_run_of_trace setup.Harness.Stacks.pattern trace, trace)

let test_paxos_strong_tob_failure_free () =
  let setup = { (Harness.Stacks.default ~n:3 ~deadline:200) with omega = oracle 0 } in
  let inputs = Harness.Stacks.spread_posts ~n:3 ~count:9 ~from_time:10 ~every:4 in
  let run, _ = run_paxos ~inputs setup in
  let report = Properties.etob_report run in
  Alcotest.(check bool)
    (Format.asprintf "strong TOB: %a" Properties.pp_etob_report report)
    true (Properties.is_strong_tob report);
  Alcotest.(check int) "all delivered" 9 (List.length (Properties.final_d run 0))

let test_paxos_survives_leader_crash () =
  (* The leader crashes mid-run; Omega repoints to p1 and the new leader
     recovers in-flight slots through the prepare phase. *)
  let pattern = Failures.of_crashes ~n:3 [ (0, 40) ] in
  let setup = { (Harness.Stacks.default ~n:3 ~deadline:400) with
                pattern;
                omega = oracle ~pre:(Detectors.Omega.Fixed 0) 60 } in
  let inputs =
    [ (10, 1, Harness.Stacks.Post "pre-crash");
      (80, 1, Harness.Stacks.Post "post-crash");
      (100, 2, Harness.Stacks.Post "late") ]
  in
  let run, _ = run_paxos ~inputs setup in
  let report = Properties.etob_report run in
  Alcotest.(check bool) "still strong TOB" true (Properties.is_strong_tob report);
  Alcotest.(check int) "all three delivered by survivors" 3
    (List.length (Properties.final_d run 1))

let test_paxos_blocks_without_majority () =
  (* 3 of 5 crash: requests sent after the crash point are never delivered.
     This is the paper's availability gap: Sigma (quorums) is needed. *)
  let pattern = Failures.of_crashes ~n:5 [ (2, 30); (3, 30); (4, 30) ] in
  let setup = { (Harness.Stacks.default ~n:5 ~deadline:300) with
                pattern; omega = oracle 0 } in
  let inputs =
    [ (10, 0, Harness.Stacks.Post "early");
      (50, 0, Harness.Stacks.Post "blocked-1");
      (90, 1, Harness.Stacks.Post "blocked-2") ]
  in
  let run, _ = run_paxos ~inputs setup in
  let tags = List.map (fun m -> m.App_msg.tag) (Properties.final_d run 0) in
  Alcotest.(check (list string)) "only the pre-crash message delivers"
    [ "early" ] tags

let test_paxos_three_step_latency () =
  (* Steady state: request -> Accept -> Accepted = three communication
     steps (plus at most one timer period of batching at the leader). *)
  let delta = 3 in
  let setup = { (Harness.Stacks.default ~n:3 ~deadline:200) with
                delay = Net.constant delta; omega = oracle 0; timer_period = 1 } in
  let post_at = 100 in
  let inputs =
    [ (20, 0, Harness.Stacks.Post "warmup");
      (post_at, 1, Harness.Stacks.Post "probe") ]
  in
  let run, trace = run_paxos ~inputs setup in
  let probe =
    List.find_map
      (fun (_, _, o) ->
         match o with
         | Etob_intf.Etob_broadcast m when m.App_msg.tag = "probe" -> Some m
         | _ -> None)
      (Trace.outputs trace)
  in
  match probe with
  | None -> Alcotest.fail "probe not broadcast"
  | Some m ->
    (match Properties.stable_delivery_time run m with
     | None -> Alcotest.fail "probe not delivered"
     | Some t ->
       let latency = t - post_at in
       Alcotest.(check bool)
         (Printf.sprintf "latency %d within [3D, 3D + timer]" latency)
         true
         (latency >= 3 * delta
          && latency <= (3 * delta) + setup.Harness.Stacks.timer_period + 1))

let test_paxos_majority_side_live_under_partition () =
  (* During a partition with a competing minority-side campaigner, the
     majority side must still commit (regression test for the stale-victory
     race: a leader must not adopt a ballot already preempted locally). *)
  let blocks = [ [ 0; 1; 2 ]; [ 3; 4 ] ] in
  let spec = { Net.blocks; from_time = 5; until_time = 100 } in
  let setup = { (Harness.Stacks.default ~n:5 ~deadline:300) with
                delay = Net.partitioned spec ~base:(Net.constant 1);
                omega = Harness.Stacks.Oracle
                    { stabilize_at = 100; pre = Detectors.Omega.Blockwise blocks } } in
  let inputs = [ (10, 0, Harness.Stacks.Post "maj") ] in
  let run, _ = run_paxos ~inputs setup in
  (* The majority side delivers its write well before the heal. *)
  let d_mid = Properties.d_at run 0 50 in
  Alcotest.(check int) "majority committed during partition" 1 (List.length d_mid)

let test_paxos_leader_change_no_duplication () =
  (* A request caught across a leader change may be proposed in two slots;
     delivery must still be exactly-once. *)
  let setup = { (Harness.Stacks.default ~n:3 ~deadline:400) with
                omega = oracle ~pre:(Detectors.Omega.Rotating 15) 100 } in
  let inputs = Harness.Stacks.spread_posts ~n:3 ~count:9 ~from_time:5 ~every:8 in
  let run, _ = run_paxos ~inputs setup in
  let report = Properties.etob_report run in
  Alcotest.(check bool) "no duplication" true
    report.Properties.no_duplication.Properties.ok;
  Alcotest.(check bool) "stability never violated (safety)" true
    (report.Properties.tau_stability = 0);
  Alcotest.(check bool) "total order never violated (safety)" true
    (report.Properties.tau_total_order = 0)

(* Safety is unconditional: under random delays, random crashes and a noisy
   Omega prefix, delivered sequences never diverge, are never revised, and
   never duplicate or invent messages.  (Liveness may be lost: that is the
   point of the baseline.) *)
let prop_paxos_safety_random_runs =
  QCheck.Test.make ~name:"paxos: strong safety in any run" ~count:20
    QCheck.small_int
    (fun seed ->
       let rng = Rng.create seed in
       let n = 3 + Rng.int rng 3 in
       let pattern = Failures.random ~rng ~n ~max_faulty:(n - 1) ~horizon:60 in
       let setup = { (Harness.Stacks.default ~n ~deadline:300) with
                     pattern; seed;
                     delay = Net.uniform ~min:1 ~max:5;
                     omega = oracle ~pre:(Detectors.Omega.Seeded seed) 70 } in
       let inputs = Harness.Stacks.spread_posts ~n ~count:6 ~from_time:5 ~every:6 in
       let run, _ = run_paxos ~inputs setup in
       let report = Properties.etob_report run in
       report.Properties.no_duplication.Properties.ok
       && report.Properties.no_creation.Properties.ok
       && report.Properties.tau_stability = 0
       && report.Properties.tau_total_order = 0)

(* The incremental baseline against the whole-history one
   (Paxos_tob_oracle): under random adversity plans — crashes, buffering
   and lossy partitions, delay spikes, drops, duplication, Omega flapping —
   the two traces must be identical, event for event. *)
let paxos_trace ~oracle setup inputs =
  let trace =
    if not oracle then
      Harness.Stacks.run_etob ~inputs setup Harness.Stacks.Paxos_baseline
    else
      let omega_of = Harness.Stacks.omega_module setup in
      let make_node ctx =
        let omega, omega_node = omega_of ctx in
        let t, node = Paxos_tob_oracle.create ctx ~omega in
        let service = Paxos_tob_oracle.service t in
        (Engine.stack [ omega_node; node; Harness.Stacks.post_driver service ], ())
      in
      fst (Engine.run_with (Harness.Stacks.engine_config setup) ~make_node ~inputs)
  in
  Format.asprintf "%a" Trace.pp trace

let prop_paxos_matches_oracle =
  let deadline = 300 in
  QCheck.Test.make
    ~name:"paxos: incremental and whole-history runs are trace-identical"
    ~count:1000
    (QCheck.make
       ~print:(fun (seed, n, plan) ->
           Format.asprintf "seed=%d n=%d plan=%a" seed n Harness.Adversity.pp plan)
       QCheck.Gen.(
         let* seed = int_range 0 10_000 in
         let* n = int_range 3 5 in
         let* plan = Harness.Builder.plan_gen ~n ~deadline in
         return (seed, n, plan)))
    (fun (seed, n, plan) ->
       let setup =
         Harness.Adversity.apply plan
           { (Harness.Stacks.default ~n ~deadline) with
             seed;
             delay = Net.uniform ~min:1 ~max:4;
             omega = oracle ~pre:(Detectors.Omega.Seeded seed) 40 }
       in
       let inputs = Harness.Stacks.spread_posts ~n ~count:12 ~from_time:5 ~every:3 in
       String.equal (paxos_trace ~oracle:false setup inputs)
         (paxos_trace ~oracle:true setup inputs))

let () =
  let qc =
    List.map QCheck_alcotest.to_alcotest
      [ prop_paxos_safety_random_runs; prop_paxos_matches_oracle ]
  in
  Alcotest.run "consensus"
    [ ("paxos_tob",
       [ Alcotest.test_case "strong TOB failure-free" `Quick
           test_paxos_strong_tob_failure_free;
         Alcotest.test_case "survives leader crash" `Quick
           test_paxos_survives_leader_crash;
         Alcotest.test_case "blocks without majority" `Quick
           test_paxos_blocks_without_majority;
         Alcotest.test_case "majority side live under partition" `Quick
           test_paxos_majority_side_live_under_partition;
         Alcotest.test_case "three-step latency" `Quick test_paxos_three_step_latency;
         Alcotest.test_case "leader change, no duplication" `Quick
           test_paxos_leader_change_no_duplication ]);
      ("safety", qc);
    ]
