(* Tests for the replication layer: commands, deterministic machines, and
   replicas over both ETOB (eventually consistent service) and the Paxos
   baseline (strongly consistent service). *)

open Simulator
open Replication

(* ------------------------------------------------------------------ *)
(* Commands                                                            *)
(* ------------------------------------------------------------------ *)

let all_commands =
  [ Command.incr 5; Command.incr (-2); Command.put "k" "v"; Command.del "k";
    Command.enqueue "x"; Command.dequeue; Command.set_reg "r";
    Command.wput ~client:4 ~rid:17 "k" "v" ]

let test_command_roundtrip () =
  List.iter
    (fun c ->
       match Command.of_tag (Command.to_tag c) with
       | Some c' -> Alcotest.(check bool) "roundtrip" true (Command.equal c c')
       | None -> Alcotest.failf "roundtrip failed for %s" (Command.to_tag c))
    all_commands

let test_command_rejects_colon () =
  Alcotest.check_raises "colon key"
    (Invalid_argument "Command: key must not contain ':' (\"a:b\")")
    (fun () -> ignore (Command.put "a:b" "v"))

let test_command_of_tag_garbage () =
  Alcotest.(check (option (Alcotest.testable Command.pp Command.equal)))
    "garbage" None (Command.of_tag "nonsense");
  Alcotest.(check (option (Alcotest.testable Command.pp Command.equal)))
    "bad int" None (Command.of_tag "incr:zzz")

(* ------------------------------------------------------------------ *)
(* Machines                                                            *)
(* ------------------------------------------------------------------ *)

let test_counter () =
  let s = Machines.replay (module Machines.Counter)
      [ Command.incr 3; Command.incr (-1); Command.put "a" "b" ] in
  Alcotest.(check int) "counter" 2 s

let test_kv () =
  let s = Machines.replay (module Machines.Kv)
      [ Command.put "a" "1"; Command.put "b" "2"; Command.del "a";
        Command.put "b" "3" ] in
  Alcotest.(check string) "kv digest" "b=3" (Machines.Kv.digest s)

let test_register () =
  let s = Machines.replay (module Machines.Register)
      [ Command.set_reg "x"; Command.set_reg "y" ] in
  Alcotest.(check string) "register" "y" (Machines.Register.digest s)

let test_fifo () =
  let s = Machines.replay (module Machines.Fifo)
      [ Command.enqueue "a"; Command.enqueue "b"; Command.dequeue;
        Command.enqueue "c" ] in
  Alcotest.(check string) "fifo" "b|c" (Machines.Fifo.digest s);
  let empty_deq = Machines.replay (module Machines.Fifo) [ Command.dequeue ] in
  Alcotest.(check string) "dequeue on empty is a no-op" ""
    (Machines.Fifo.digest empty_deq)

let command_gen =
  QCheck.Gen.(
    oneof
      [ map (fun n -> Command.Incr n) (int_range (-5) 5);
        map2 (fun k v -> Command.Put (string_of_int k, string_of_int v))
          (int_range 0 4) (int_range 0 9);
        map (fun k -> Command.Del (string_of_int k)) (int_range 0 4);
        map (fun x -> Command.Enqueue (string_of_int x)) (int_range 0 9);
        return Command.Dequeue;
        map (fun v -> Command.Set_reg (string_of_int v)) (int_range 0 9) ])

let commands_arb =
  QCheck.make
    ~print:(fun cs -> String.concat ";" (List.map Command.to_tag cs))
    QCheck.Gen.(list_size (int_range 0 30) command_gen)

(* Determinism: same command sequence, same digest — the property state
   machine replication rests on. *)
let prop_machines_deterministic =
  QCheck.Test.make ~name:"machines: replay is deterministic" ~count:200
    commands_arb
    (fun cs ->
       Machines.Kv.digest (Machines.replay (module Machines.Kv) cs)
       = Machines.Kv.digest (Machines.replay (module Machines.Kv) cs)
       && Machines.Fifo.digest (Machines.replay (module Machines.Fifo) cs)
          = Machines.Fifo.digest (Machines.replay (module Machines.Fifo) cs))

let prop_command_roundtrip =
  QCheck.Test.make ~name:"commands: tag roundtrip" ~count:200 commands_arb
    (fun cs ->
       List.for_all
         (fun c ->
            match Command.of_tag (Command.to_tag c) with
            | Some c' -> Command.equal c c'
            | None -> false)
         cs)

(* ------------------------------------------------------------------ *)
(* Replicated services                                                 *)
(* ------------------------------------------------------------------ *)

module Counter_replica = Replica.Make (Machines.Counter)
module Kv_replica = Replica.Make (Machines.Kv)

let oracle ?(pre = Detectors.Omega.Self_trust) stabilize_at =
  Harness.Stacks.Oracle { stabilize_at; pre }

(* Build replica nodes over the chosen broadcast implementation. *)
let run_replicas (type s) (module M : Machines.MACHINE with type state = s)
    ?(inputs = []) setup impl =
  let module R = Replica.Make (M) in
  let make_node ctx =
    let proto_node, service = Harness.Stacks.etob_node setup impl ctx in
    let replica, replica_node = R.create ctx ~etob:service in
    (Engine.stack [ proto_node; replica_node ], replica)
  in
  let trace, replicas =
    Engine.run_with (Harness.Stacks.engine_config setup) ~make_node ~inputs
  in
  (trace, Array.map R.digest replicas)

let submit t p c = (t, p, Replica.Submit c)

let test_counter_replicas_converge () =
  let setup = { (Harness.Stacks.default ~n:3 ~deadline:120) with omega = oracle 0 } in
  let inputs =
    [ submit 5 0 (Command.incr 3); submit 8 1 (Command.incr 4);
      submit 12 2 (Command.incr (-1)) ]
  in
  let trace, digests = run_replicas (module Machines.Counter) ~inputs setup
      Harness.Stacks.Algorithm_5 in
  Array.iter (fun d -> Alcotest.(check string) "sum is 6" "6" d) digests;
  let run = Convergence.run_of_trace setup.Harness.Stacks.pattern trace in
  Alcotest.(check bool) "converged" true (Convergence.converged run)

let partition_setup ~n ~heal =
  let blocks = [ [ 0; 1; 2 ]; [ 3; 4 ] ] in
  let spec = { Net.blocks; from_time = 5; until_time = heal } in
  { (Harness.Stacks.default ~n ~deadline:(heal * 3)) with
    delay = Net.partitioned spec ~base:(Net.constant 1);
    omega = oracle ~pre:(Detectors.Omega.Blockwise blocks) heal }

let test_kv_replicas_eventually_consistent_across_partition () =
  (* Writes land on both sides of a partition; replicas diverge during the
     partition and converge after healing.  This is the title's eventually
     consistent replicated service, end to end. *)
  let heal = 50 in
  let setup = partition_setup ~n:5 ~heal in
  let inputs =
    [ submit 10 0 (Command.put "x" "left");
      submit 12 3 (Command.put "y" "right");
      submit 20 1 (Command.put "z" "1");
      submit 22 4 (Command.put "w" "2") ]
  in
  let trace, digests = run_replicas (module Machines.Kv) ~inputs setup
      Harness.Stacks.Algorithm_5 in
  let expected = "w=2,x=left,y=right,z=1" in
  Array.iter (fun d -> Alcotest.(check string) "final state" expected d) digests;
  let run = Convergence.run_of_trace setup.Harness.Stacks.pattern trace in
  Alcotest.(check bool) "diverged during partition" true
    (Convergence.divergence_ticks ~from_time:10 run > 0);
  Alcotest.(check bool) "converged after heal" true
    (Convergence.convergence_time run <= heal + 10)

let test_replica_over_paxos_never_rolls_back () =
  (* The same replica code over the strong baseline: zero rollbacks. *)
  let setup = { (Harness.Stacks.default ~n:3 ~deadline:200) with omega = oracle 0 } in
  let inputs =
    [ submit 10 0 (Command.put "a" "1"); submit 20 1 (Command.put "b" "2");
      submit 30 2 (Command.del "a") ]
  in
  let trace, digests = run_replicas (module Machines.Kv) ~inputs setup
      Harness.Stacks.Paxos_baseline in
  Array.iter (fun d -> Alcotest.(check string) "final" "b=2" d) digests;
  let run = Convergence.run_of_trace setup.Harness.Stacks.pattern trace in
  Alcotest.(check int) "no rollbacks" 0 (Convergence.total_rollbacks run)

let test_replica_over_etob_rolls_back_during_disagreement () =
  (* Divergent leaders make the applied log revisable before stabilization:
     the rollbacks the replica checker counts are the visible price of
     eventual consistency. *)
  let heal = 50 in
  let setup = partition_setup ~n:5 ~heal in
  let inputs =
    [ submit 10 0 (Command.put "x" "left");
      submit 12 3 (Command.put "x" "right") ]
  in
  let trace, _ = run_replicas (module Machines.Kv) ~inputs setup
      Harness.Stacks.Algorithm_5 in
  let run = Convergence.run_of_trace setup.Harness.Stacks.pattern trace in
  Alcotest.(check bool) "converged" true (Convergence.converged run);
  (* Both writes hit the same key from the two sides: once sides merge, the
     side whose order loses must revise. *)
  Alcotest.(check bool) "some replica revised its log" true
    (Convergence.total_rollbacks run > 0)

let test_replicas_survive_minority () =
  (* 3 of 5 crash; the ETOB-backed service keeps accepting and applying
     writes on the surviving minority. *)
  let pattern = Failures.of_crashes ~n:5 [ (2, 25); (3, 25); (4, 25) ] in
  let setup = { (Harness.Stacks.default ~n:5 ~deadline:200) with
                pattern; omega = oracle 0 } in
  let inputs =
    [ submit 10 0 (Command.incr 1); submit 40 1 (Command.incr 10);
      submit 60 0 (Command.incr 100) ]
  in
  let trace, digests = run_replicas (module Machines.Counter) ~inputs setup
      Harness.Stacks.Algorithm_5 in
  List.iter
    (fun p -> Alcotest.(check string) "survivor state" "111" digests.(p))
    (Failures.correct pattern);
  let run = Convergence.run_of_trace pattern trace in
  Alcotest.(check bool) "converged" true (Convergence.converged run)

(* ------------------------------------------------------------------ *)
(* Committed vs speculative views                                      *)
(* ------------------------------------------------------------------ *)

module Dual_kv = Committed_replica.Make (Machines.Kv)

let run_dual_kv ?(inputs = []) setup =
  let make_node ctx =
    let omega, omega_node = Harness.Stacks.omega_module setup ctx in
    let etob, etob_node = Ec_core.Etob_omega.create ctx ~omega in
    let service = Ec_core.Etob_omega.service etob in
    let replica, replica_node =
      Dual_kv.create ctx ~etob:service ~omega
        ~promotion:(fun () -> Ec_core.Etob_omega.promotion etob)
    in
    (Engine.stack [ omega_node; etob_node; replica_node ], replica)
  in
  Engine.run_with (Harness.Stacks.engine_config setup) ~make_node ~inputs

let test_dual_views_agree_in_stable_period () =
  let setup = { (Harness.Stacks.default ~n:5 ~deadline:200) with omega = oracle 0 } in
  let inputs =
    [ submit 10 0 (Command.put "a" "1"); submit 20 1 (Command.put "b" "2") ]
  in
  let trace, replicas = run_dual_kv ~inputs setup in
  Array.iter
    (fun r ->
       Alcotest.(check string) "speculative" "a=1,b=2" (Dual_kv.speculative_digest r);
       Alcotest.(check string) "committed catches up" "a=1,b=2"
         (Dual_kv.committed_digest r))
    replicas;
  Alcotest.(check bool) "committed monotone" true
    (Committed_replica.committed_monotone setup.Harness.Stacks.pattern trace)

let test_dual_views_split_during_partition () =
  (* During the partition the minority side speculates on its own writes
     while committing nothing new; committed reads never roll back even
     though speculative ones do. *)
  let heal = 60 in
  let setup = partition_setup ~n:5 ~heal in
  let inputs =
    [ submit 10 0 (Command.put "x" "left"); submit 12 3 (Command.put "x" "right") ]
  in
  let trace, replicas = run_dual_kv ~inputs setup in
  Array.iter
    (fun r ->
       Alcotest.(check string) "all converge speculatively" "x=right"
         (Dual_kv.speculative_digest r))
    replicas;
  Alcotest.(check bool) "committed never rolled back" true
    (Committed_replica.committed_monotone setup.Harness.Stacks.pattern trace);
  (* Speculative rollbacks did happen (the losing side revised). *)
  let conv = Convergence.run_of_trace setup.Harness.Stacks.pattern trace in
  Alcotest.(check bool) "speculative rollbacks occurred" true
    (Convergence.total_rollbacks conv > 0)

let test_dual_views_committed_stalls_without_majority () =
  let pattern = Failures.of_crashes ~n:5 [ (2, 30); (3, 30); (4, 30) ] in
  let setup = { (Harness.Stacks.default ~n:5 ~deadline:300) with
                pattern; omega = oracle 0 } in
  let inputs =
    [ submit 10 0 (Command.put "a" "1"); submit 80 1 (Command.put "b" "2") ]
  in
  let _, replicas = run_dual_kv ~inputs setup in
  List.iter
    (fun p ->
       let r = replicas.(p) in
       Alcotest.(check string) "speculative view has both" "a=1,b=2"
         (Dual_kv.speculative_digest r);
       Alcotest.(check bool) "committed view misses the post-crash write" true
         (not (String.length (Dual_kv.committed_digest r) >= 7
               && String.sub (Dual_kv.committed_digest r) 4 3 = "b=2")))
    (Failures.correct pattern)

let test_replica_ignores_foreign_traffic () =
  (* Non-command messages share the broadcast layer (e.g. Algorithm 2's
     consensus tags); replicas must skip them without desynchronizing. *)
  let setup = { (Harness.Stacks.default ~n:3 ~deadline:120) with omega = oracle 0 } in
  let inputs =
    [ submit 5 0 (Command.incr 2);
      (8, 1, Harness.Stacks.Post "not-a-command");
      submit 12 2 (Command.incr 5) ]
  in
  let _, digests = run_replicas (module Machines.Counter) ~inputs setup
      Harness.Stacks.Algorithm_5 in
  Array.iter (fun d -> Alcotest.(check string) "foreign tags skipped" "7" d) digests

(* ------------------------------------------------------------------ *)
(* Session guarantees                                                  *)
(* ------------------------------------------------------------------ *)

let run_sessions ?(inputs = []) setup =
  let make_node ctx =
    let omega, omega_node = Harness.Stacks.omega_module setup ctx in
    let etob, etob_node = Ec_core.Etob_omega.create ctx ~omega in
    let service = Ec_core.Etob_omega.service etob in
    let replica, replica_node =
      Dual_kv.create ctx ~etob:service ~omega
        ~promotion:(fun () -> Ec_core.Etob_omega.promotion etob)
    in
    let key = Session.key_of ctx.Engine.self in
    let lookup state () = Machines.String_map.find_opt key state in
    let views =
      [ { Session.v_name = "speculative";
          v_lookup = (fun () -> lookup (Dual_kv.speculative_state replica) ()) };
        { Session.v_name = "committed";
          v_lookup = (fun () -> lookup (Dual_kv.committed_state replica) ()) } ]
    in
    let _, session_node =
      Session.create ctx ~session:ctx.Engine.self ~views
        ~submit:(Dual_kv.submit replica)
    in
    (Engine.stack [ omega_node; etob_node; replica_node; session_node ], ())
  in
  let trace, _ =
    Engine.run_with (Harness.Stacks.engine_config setup) ~make_node ~inputs
  in
  trace

let session_steps ~procs ~from_time ~until ~every =
  List.concat_map
    (fun p ->
       List.init ((until - from_time) / every) (fun i ->
           (from_time + (i * every), p, Session.Session_step)))
    procs

let test_sessions_clean_in_stable_period () =
  (* Reads spaced beyond the write round trip: both views give full session
     guarantees under a stable leader. *)
  let setup = { (Harness.Stacks.default ~n:3 ~deadline:200) with omega = oracle 0 } in
  let inputs = session_steps ~procs:[ 0; 1; 2 ] ~from_time:20 ~until:180 ~every:12 in
  let trace = run_sessions ~inputs setup in
  List.iter
    (fun session ->
       List.iter
         (fun view ->
            let tally = Session.tally_of_trace trace ~session ~view in
            Alcotest.(check bool) "read something" true (tally.Session.reads > 5);
            Alcotest.(check int)
              (Printf.sprintf "s%d %s ryw" session view) 0
              tally.Session.ryw_violations;
            Alcotest.(check int)
              (Printf.sprintf "s%d %s mr" session view) 0
              tally.Session.mr_violations)
         [ "speculative"; "committed" ])
    [ 0; 1; 2 ]

let test_sessions_split_across_partition () =
  let heal = 120 in
  let setup = partition_setup ~n:5 ~heal in
  let setup = { setup with deadline = 320 } in
  let inputs = session_steps ~procs:[ 0; 3 ] ~from_time:20 ~until:300 ~every:12 in
  let trace = run_sessions ~inputs setup in
  (* The majority-side session is clean on the speculative view. *)
  let p0_spec = Session.tally_of_trace trace ~session:0 ~view:"speculative" in
  Alcotest.(check int) "p0 speculative ryw" 0 p0_spec.Session.ryw_violations;
  (* The minority-side committed view cannot serve the session's own writes
     during the partition. *)
  let p3_comm = Session.tally_of_trace trace ~session:3 ~view:"committed" in
  Alcotest.(check bool) "p3 committed ryw violations during partition" true
    (p3_comm.Session.ryw_violations >= 3);
  (* Every stream is clean from shortly after the heal on. *)
  List.iter
    (fun (session, view) ->
       let tally = Session.tally_of_trace trace ~session ~view in
       Alcotest.(check bool)
         (Printf.sprintf "s%d %s clean after heal (last@%d)" session view
            tally.Session.last_violation)
         true
         (tally.Session.last_violation <= heal + 40))
    [ (0, "speculative"); (0, "committed"); (3, "speculative"); (3, "committed") ]

(* --- crash-triggered session migration ------------------------------ *)

(* One session (id 7) lives on replica 0 until it crashes at t=80, then
   resumes on replica 1.  Both incarnations exist from the start; the
   [Session_step_for] inputs route the steps — to proc 0 before the crash,
   to proc 1 after — and [resume_at] decides whether the handoff carries
   the write counter over.  The guarantee checkers must stay clean for a
   correct handoff and flag a naive restart, not silently pass. *)
let run_migrated_session ~resume_at =
  let setup =
    { (Harness.Stacks.default ~n:3 ~deadline:220) with
      omega = oracle 0;
      pattern = Failures.crash_at (Failures.none ~n:3) 0 80 }
  in
  let make_node ctx =
    let omega, omega_node = Harness.Stacks.omega_module setup ctx in
    let etob, etob_node = Ec_core.Etob_omega.create ctx ~omega in
    let service = Ec_core.Etob_omega.service etob in
    let replica, replica_node =
      Dual_kv.create ctx ~etob:service ~omega
        ~promotion:(fun () -> Ec_core.Etob_omega.promotion etob)
    in
    let views =
      [ { Session.v_name = "speculative";
          v_lookup =
            (fun () ->
              Machines.String_map.find_opt (Session.key_of 7)
                (Dual_kv.speculative_state replica)) } ]
    in
    let session_nodes =
      match ctx.Engine.self with
      | 0 ->
        [ snd
            (Session.create ctx ~session:7 ~views
               ~submit:(Dual_kv.submit replica)) ]
      | 1 ->
        [ snd
            (Session.create ~resume_at ctx ~session:7 ~views
               ~submit:(Dual_kv.submit replica)) ]
      | _ -> []
    in
    ( Engine.stack
        ([ omega_node; etob_node; replica_node ] @ session_nodes),
      () )
  in
  let steps proc ~from_time ~until =
    List.init ((until - from_time) / 12) (fun i ->
        (from_time + (i * 12), proc, Session.Session_step_for 7))
  in
  let inputs = steps 0 ~from_time:20 ~until:80 @ steps 1 ~from_time:100 ~until:200 in
  let trace, _ =
    Engine.run_with (Harness.Stacks.engine_config setup) ~make_node ~inputs
  in
  Session.tally_of_trace trace ~session:7 ~view:"speculative"

let test_session_migration_correct_handoff () =
  (* Proc 0 takes 5 steps before crashing, so the migrated incarnation
     must resume its value stream at 5. *)
  let tally = run_migrated_session ~resume_at:5 in
  Alcotest.(check bool) "reads on both replicas" true (tally.Session.reads >= 10);
  Alcotest.(check int) "ryw clean" 0 tally.Session.ryw_violations;
  Alcotest.(check int) "mr clean" 0 tally.Session.mr_violations

let test_session_migration_naive_restart_flagged () =
  (* A naive migration restarts the value stream at 1: its re-written
     values regress the session's reads and the monotonic-reads checker
     must flag it. *)
  let tally = run_migrated_session ~resume_at:0 in
  Alcotest.(check bool) "reads on both replicas" true (tally.Session.reads >= 10);
  Alcotest.(check bool)
    (Format.asprintf "naive restart flagged (%a)" Session.pp_tally tally)
    true
    (tally.Session.mr_violations > 0)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest
      [ prop_machines_deterministic; prop_command_roundtrip ]
  in
  Alcotest.run "replication"
    [ ("command",
       [ Alcotest.test_case "roundtrip" `Quick test_command_roundtrip;
         Alcotest.test_case "rejects colon" `Quick test_command_rejects_colon;
         Alcotest.test_case "garbage tags" `Quick test_command_of_tag_garbage ]);
      ("machines",
       [ Alcotest.test_case "counter" `Quick test_counter;
         Alcotest.test_case "kv" `Quick test_kv;
         Alcotest.test_case "register" `Quick test_register;
         Alcotest.test_case "fifo" `Quick test_fifo ]
       @ qc);
      ("replica",
       [ Alcotest.test_case "counters converge" `Quick test_counter_replicas_converge;
         Alcotest.test_case "kv across partition" `Quick
           test_kv_replicas_eventually_consistent_across_partition;
         Alcotest.test_case "paxos never rolls back" `Quick
           test_replica_over_paxos_never_rolls_back;
         Alcotest.test_case "etob rolls back during disagreement" `Quick
           test_replica_over_etob_rolls_back_during_disagreement;
         Alcotest.test_case "survives minority" `Quick test_replicas_survive_minority;
         Alcotest.test_case "ignores foreign traffic" `Quick
           test_replica_ignores_foreign_traffic ]);
      ("committed_replica",
       [ Alcotest.test_case "views agree in stable period" `Quick
           test_dual_views_agree_in_stable_period;
         Alcotest.test_case "views split during partition" `Quick
           test_dual_views_split_during_partition;
         Alcotest.test_case "committed stalls without majority" `Quick
           test_dual_views_committed_stalls_without_majority ]);
      ("sessions",
       [ Alcotest.test_case "clean in stable period" `Quick
           test_sessions_clean_in_stable_period;
         Alcotest.test_case "split across partition" `Quick
           test_sessions_split_across_partition;
         Alcotest.test_case "migration: correct handoff clean" `Quick
           test_session_migration_correct_handoff;
         Alcotest.test_case "migration: naive restart flagged" `Quick
           test_session_migration_naive_restart_flagged ]);
    ]
