(* Tests for the failure-detector library: the Omega, Sigma, <>P and P
   oracles (their defining properties over many histories), and the
   heartbeat-based Omega emulation. *)

open Simulator
open Simulator.Types

(* ------------------------------------------------------------------ *)
(* Omega oracle                                                        *)
(* ------------------------------------------------------------------ *)

let test_omega_eventually_agrees_on_correct () =
  let pattern = Failures.of_crashes ~n:4 [ (0, 8); (2, 3) ] in
  let omega = Detectors.Omega.make pattern ~stabilize_at:20 in
  Alcotest.(check int) "leader is min correct" 1 (Detectors.Omega.leader omega);
  List.iter
    (fun p ->
       List.iter
         (fun now ->
            Alcotest.(check int) "stable output" 1
              (Detectors.Omega.query omega ~self:p ~now))
         [ 20; 25; 100 ])
    (Failures.correct pattern)

let test_omega_pre_behaviours () =
  let pattern = Failures.none ~n:4 in
  let check_pre pre expect =
    let omega = Detectors.Omega.make ~pre pattern ~stabilize_at:1000 in
    List.iter
      (fun (self, now, expected) ->
         Alcotest.(check int)
           (Format.asprintf "pre %d@%d" self now) expected
           (Detectors.Omega.query omega ~self ~now))
      expect
  in
  check_pre Detectors.Omega.Self_trust [ (0, 5, 0); (3, 5, 3) ];
  check_pre (Detectors.Omega.Fixed 2) [ (0, 5, 2); (3, 7, 2) ];
  check_pre (Detectors.Omega.Rotating 10) [ (0, 5, 0); (1, 15, 1); (2, 25, 2) ];
  check_pre (Detectors.Omega.Blockwise [ [ 0; 1 ]; [ 2; 3 ] ])
    [ (0, 5, 0); (1, 5, 0); (2, 5, 2); (3, 5, 2) ]

let test_omega_blockwise_tracks_crashes () =
  let pattern = Failures.of_crashes ~n:4 [ (0, 10) ] in
  let omega =
    Detectors.Omega.make ~pre:(Detectors.Omega.Blockwise [ [ 0; 1 ]; [ 2; 3 ] ])
      pattern ~stabilize_at:1000
  in
  Alcotest.(check int) "block leader before crash" 0
    (Detectors.Omega.query omega ~self:1 ~now:5);
  Alcotest.(check int) "block leader after crash" 1
    (Detectors.Omega.query omega ~self:1 ~now:15)

let test_omega_requires_correct_process () =
  let pattern = Failures.of_crashes ~n:2 [ (0, 1); (1, 1) ] in
  Alcotest.check_raises "no correct"
    (Invalid_argument "Omega.make: no correct process in pattern")
    (fun () -> ignore (Detectors.Omega.make pattern ~stabilize_at:0))

let prop_omega_spec =
  QCheck.Test.make ~name:"omega: eventual agreement on one correct process"
    ~count:100 QCheck.small_int
    (fun seed ->
       let rng = Rng.create seed in
       let n = 2 + Rng.int rng 5 in
       let pattern = Failures.random ~rng ~n ~max_faulty:(n - 1) ~horizon:30 in
       let stabilize_at = 30 + Rng.int rng 20 in
       let omega =
         Detectors.Omega.make ~pre:(Detectors.Omega.Seeded seed) pattern ~stabilize_at
       in
       let leader = Detectors.Omega.leader omega in
       Failures.is_correct pattern leader
       && List.for_all
         (fun p ->
            List.for_all
              (fun now -> Detectors.Omega.query omega ~self:p ~now = leader)
              [ stabilize_at; stabilize_at + 17; stabilize_at + 100 ])
         (Failures.correct pattern))

(* ------------------------------------------------------------------ *)
(* Sigma oracle                                                        *)
(* ------------------------------------------------------------------ *)

let prop_sigma_intersection =
  QCheck.Test.make ~name:"sigma: any two quorums intersect" ~count:100
    QCheck.small_int
    (fun seed ->
       let rng = Rng.create seed in
       let n = 2 + Rng.int rng 5 in
       let pattern = Failures.random ~rng ~n ~max_faulty:(n - 1) ~horizon:30 in
       let sigma = Detectors.Sigma.make pattern ~stabilize_at:40 in
       let queries =
         List.concat_map
           (fun p -> List.map (fun now -> Detectors.Sigma.query sigma ~self:p ~now)
               [ 0; 7; 39; 40; 90 ])
           (all_procs n)
       in
       List.for_all
         (fun q1 ->
            List.for_all
              (fun q2 -> List.exists (fun x -> List.mem x q2) q1)
              queries)
         queries)

let test_sigma_eventually_correct_only () =
  let pattern = Failures.of_crashes ~n:5 [ (1, 5); (4, 9) ] in
  let sigma = Detectors.Sigma.make pattern ~stabilize_at:30 in
  List.iter
    (fun p ->
       let quorum = Detectors.Sigma.query sigma ~self:p ~now:50 in
       Alcotest.(check (list int)) "only correct" [ 0; 2; 3 ] quorum)
    (Failures.correct pattern)

(* ------------------------------------------------------------------ *)
(* <>P and P oracles                                                   *)
(* ------------------------------------------------------------------ *)

let test_ep_eventually_exact () =
  let pattern = Failures.of_crashes ~n:4 [ (2, 6) ] in
  let ep = Detectors.Suspicions.eventually_perfect pattern ~stabilize_at:25 in
  List.iter
    (fun p ->
       Alcotest.(check (list int)) "exactly faulty" [ 2 ]
         (Detectors.Suspicions.query_ep ep ~self:p ~now:30))
    (Failures.correct pattern)

let test_p_strong_accuracy () =
  let pattern = Failures.of_crashes ~n:4 [ (1, 10) ] in
  let p_det = Detectors.Suspicions.perfect pattern ~lag:3 in
  (* Never suspected before the crash... *)
  Alcotest.(check (list int)) "nothing before" []
    (Detectors.Suspicions.query_p p_det ~self:0 ~now:9);
  (* ... nor during the detection lag ... *)
  Alcotest.(check (list int)) "lag" []
    (Detectors.Suspicions.query_p p_det ~self:0 ~now:12);
  (* ... and suspected forever after. *)
  Alcotest.(check (list int)) "after lag" [ 1 ]
    (Detectors.Suspicions.query_p p_det ~self:0 ~now:13)

let test_omega_from_ep () =
  let pattern = Failures.of_crashes ~n:3 [ (0, 4) ] in
  let ep = Detectors.Suspicions.eventually_perfect pattern ~stabilize_at:20 in
  List.iter
    (fun p ->
       Alcotest.(check int) "trusts min unsuspected" 1
         (Detectors.Suspicions.omega_from_ep ep ~self:p ~now:25))
    (Failures.correct pattern)

(* ------------------------------------------------------------------ *)
(* Omega election (heartbeat emulation)                                *)
(* ------------------------------------------------------------------ *)

let run_election ?(n = 4) ?(pattern = None) ?(deadline = 120)
    ?(delay = Net.constant 1) () =
  let pattern = match pattern with Some p -> p | None -> Failures.none ~n in
  let config = { (Engine.default_config ~n ~deadline) with pattern; delay } in
  let make_node ctx =
    let election, node = Detectors.Omega_election.create ctx ~initial_timeout:4 in
    (node, election)
  in
  let _, elections = Engine.run_with config ~make_node ~inputs:[] in
  (pattern, elections)

let test_election_failure_free () =
  let pattern, elections = run_election () in
  List.iter
    (fun p ->
       Alcotest.(check int) "everyone trusts p0" 0
         (Detectors.Omega_election.leader elections.(p)))
    (Failures.correct pattern)

let test_election_after_crash () =
  let pattern = Failures.of_crashes ~n:4 [ (0, 30) ] in
  let pattern, elections = run_election ~pattern:(Some pattern) ~deadline:200 () in
  List.iter
    (fun p ->
       Alcotest.(check int) "survivors trust p1" 1
         (Detectors.Omega_election.leader elections.(p)))
    (Failures.correct pattern)

let test_election_under_partial_synchrony () =
  (* The environment the emulation is actually justified in: chaos before
     GST, bounded delays after; the election converges on the leader. *)
  let delay = Net.partial_synchrony ~gst:120 ~bound:3 ~chaos_max:25 in
  let pattern, elections = run_election ~delay ~deadline:400 () in
  List.iter
    (fun p ->
       Alcotest.(check int) "trusts p0 after GST" 0
         (Detectors.Omega_election.leader elections.(p)))
    (Failures.correct pattern)

let test_election_recovers_from_slow_period () =
  (* A long slow period causes false suspicions; the adaptive timeout must
     rehabilitate the leader afterwards. *)
  let delay =
    Net.slow_links ~from_time:30 ~until_time:60 ~factor:12 (Net.constant 1)
  in
  let pattern, elections = run_election ~delay ~deadline:300 () in
  List.iter
    (fun p ->
       Alcotest.(check int) "back to p0" 0
         (Detectors.Omega_election.leader elections.(p)))
    (Failures.correct pattern);
  (* At least one process must have retracted a suspicion. *)
  let retractions =
    Array.fold_left
      (fun acc e -> acc + Detectors.Omega_election.false_suspicions e)
      0 elections
  in
  Alcotest.(check bool) "false suspicions occurred and were retracted" true
    (retractions > 0)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest [ prop_omega_spec; prop_sigma_intersection ] in
  Alcotest.run "detectors"
    [ ("omega",
       [ Alcotest.test_case "eventually agrees" `Quick
           test_omega_eventually_agrees_on_correct;
         Alcotest.test_case "pre-behaviours" `Quick test_omega_pre_behaviours;
         Alcotest.test_case "blockwise tracks crashes" `Quick
           test_omega_blockwise_tracks_crashes;
         Alcotest.test_case "requires correct process" `Quick
           test_omega_requires_correct_process ]);
      ("sigma",
       [ Alcotest.test_case "eventually correct-only" `Quick
           test_sigma_eventually_correct_only ]);
      ("suspicions",
       [ Alcotest.test_case "<>P eventually exact" `Quick test_ep_eventually_exact;
         Alcotest.test_case "P strong accuracy" `Quick test_p_strong_accuracy;
         Alcotest.test_case "omega from <>P" `Quick test_omega_from_ep ]);
      ("election",
       [ Alcotest.test_case "failure-free" `Quick test_election_failure_free;
         Alcotest.test_case "after crash" `Quick test_election_after_crash;
         Alcotest.test_case "recovers from slow period" `Quick
           test_election_recovers_from_slow_period;
         Alcotest.test_case "under partial synchrony" `Quick
           test_election_under_partial_synchrony ]);
      ("oracle-properties", qc);
    ]
