(* The benchmark harness: one section per experiment of DESIGN.md (E1-E10).

   The paper has no empirical tables (it is a theory paper); each experiment
   here regenerates one theorem-level quantitative claim, and EXPERIMENTS.md
   records the paper-vs-measured comparison.  Absolute numbers are in
   simulator ticks; what must hold is the shape: who wins, by what factor,
   and where the qualitative boundaries (majority, tau_Omega) fall. *)

open Simulator
open Ec_core

let section id title =
  Printf.printf "\n=== %s — %s ===\n%!" id title

let row fmt = Printf.printf (fmt ^^ "\n%!")

module Record = Harness.Record

(* Where experiments write their records (Harness.Record): bench/, or the
   working directory when run from outside the repository root. *)
let bench_dir =
  if Sys.file_exists "bench" && Sys.is_directory "bench" then "bench"
  else Filename.current_dir_name

let oracle ?(pre = Detectors.Omega.Self_trust) stabilize_at =
  Harness.Stacks.Oracle { stabilize_at; pre }

let impl_name = function
  | Harness.Stacks.Algorithm_5 -> "ETOB (Alg. 5)"
  | Harness.Stacks.Paxos_baseline -> "TOB (Paxos)"
  | Harness.Stacks.Algorithm_1_over_4 -> "ETOB (Alg. 1/4)"

let verdict_mark (v : Properties.verdict) = if v.Properties.ok then "ok" else "VIOLATED"
let bool_mark b = if b then "yes" else "no"

(* Stable-delivery latency of tagged probe messages, in ticks. *)
let probe_latencies trace run =
  List.filter_map
    (fun (t, _, o) ->
       match o with
       | Etob_intf.Etob_broadcast m when String.length m.App_msg.tag >= 5
                                      && String.sub m.App_msg.tag 0 5 = "probe" ->
         (match Properties.stable_delivery_time run m with
          | Some t' -> Some (t' - t)
          | None -> None)
       | _ -> None)
    (Trace.outputs trace)

let mean xs =
  match xs with
  | [] -> nan
  | _ -> float_of_int (List.fold_left ( + ) 0 xs) /. float_of_int (List.length xs)

(* ------------------------------------------------------------------ *)
(* E1: delivery latency in communication steps (2 vs 3)                *)
(* ------------------------------------------------------------------ *)

let e1 () =
  section "E1" "delivery latency under a stable leader: 2 steps (ETOB) vs 3 (TOB)";
  row "  %-4s %-16s %-10s %-14s %-12s" "n" "implementation" "delta" "mean latency"
    "in steps";
  let delta = 4 in
  List.iter
    (fun n ->
       List.iter
         (fun impl ->
            let setup = { (Harness.Stacks.default ~n ~deadline:600) with
                          delay = Net.constant delta; omega = oracle 0;
                          timer_period = 1 } in
            (* Warm up (Paxos phase 1), then 8 spaced probes. *)
            let inputs =
              (10, 0, Harness.Stacks.Post "warmup")
              :: List.init 8 (fun i ->
                  (60 + (i * 40), (i + 1) mod n,
                   Harness.Stacks.Post (Printf.sprintf "probe%d" i)))
            in
            let trace = Harness.Stacks.run_etob ~inputs setup impl in
            let run = Properties.etob_run_of_trace setup.Harness.Stacks.pattern trace in
            let lat = mean (probe_latencies trace run) in
            row "  %-4d %-16s %-10d %-14.1f %-12.2f" n (impl_name impl) delta lat
              (lat /. float_of_int delta))
         [ Harness.Stacks.Algorithm_5; Harness.Stacks.Paxos_baseline ])
    [ 3; 5; 7 ];
  row "  expected: ETOB ~2.0 steps (+ <=1 tick leader batching), TOB ~3.0 steps"

(* ------------------------------------------------------------------ *)
(* E2: availability without a correct majority                         *)
(* ------------------------------------------------------------------ *)

let e2 () =
  section "E2" "availability without a correct majority (3 of 5 crash at t=50)";
  row "  %-16s %-22s %-22s" "implementation" "delivered (minority)" "blocked messages";
  let pattern = Failures.of_crashes ~n:5 [ (2, 50); (3, 50); (4, 50) ] in
  List.iter
    (fun impl ->
       let setup = { (Harness.Stacks.default ~n:5 ~deadline:400) with
                     pattern; omega = oracle 0 } in
       let inputs =
         [ (10, 0, Harness.Stacks.Post "early-1");
           (20, 1, Harness.Stacks.Post "early-2") ]
         @ List.init 6 (fun i ->
             (80 + (i * 20), i mod 2, Harness.Stacks.Post (Printf.sprintf "late-%d" i)))
       in
       let trace = Harness.Stacks.run_etob ~inputs setup impl in
       let run = Properties.etob_run_of_trace pattern trace in
       let final = Properties.final_d run 0 in
       let late_delivered =
         List.length
           (List.filter (fun m -> String.length m.App_msg.tag >= 4
                                && String.sub m.App_msg.tag 0 4 = "late") final)
       in
       row "  %-16s %-22s %-22d" (impl_name impl)
         (Printf.sprintf "%d of 6 post-crash" late_delivered)
         (6 - late_delivered))
    [ Harness.Stacks.Algorithm_5; Harness.Stacks.Paxos_baseline ];
  row "  expected: ETOB delivers all post-crash messages, Paxos none (needs majority)"

(* ------------------------------------------------------------------ *)
(* E3: convergence time vs the Lemma 3 bound                           *)
(* ------------------------------------------------------------------ *)

let e3 () =
  section "E3" "ETOB convergence vs the bound tau_Omega + Delta_t + Delta_c (Lemma 3)";
  row "  %-10s %-8s %-8s %-12s %-8s %-8s" "tau_Omega" "Delta_t" "Delta_c"
    "measured tau" "bound" "within";
  (* [count] posts, one every 3 ticks from 4; the deadline leaves the same
     time after the last post as 10 posts had. *)
  let cell ?(count = 10) tau_omega timer_period delta_c =
    let setup = { (Harness.Stacks.default ~n:3
                     ~deadline:(tau_omega * 3 + 100 + (3 * (count - 10)))) with
                  timer_period;
                  delay = Net.constant delta_c;
                  omega = oracle ~pre:Detectors.Omega.Self_trust tau_omega } in
    let inputs = Harness.Stacks.spread_posts ~n:3 ~count ~from_time:4 ~every:3 in
    let trace = Harness.Stacks.run_etob ~inputs setup Harness.Stacks.Algorithm_5 in
    let report = Harness.Stacks.etob_report setup trace in
    let tau = Properties.etob_convergence_time report in
    let bound = tau_omega + timer_period + delta_c in
    row "  %-10d %-8d %-8d %-12d %-8d %-8s" tau_omega timer_period delta_c tau bound
      (bool_mark (tau <= bound))
  in
  List.iter
    (fun tau_omega ->
       List.iter
         (fun timer_period -> List.iter (cell tau_omega timer_period) [ 1; 3; 5 ])
         [ 2; 4 ])
    [ 20; 40; 60 ];
  row "  the last cell at 1000 posts (deadline moved with the last post):";
  cell ~count:1000 60 4 5;
  row "  expected: measured tau <= bound in every row"

(* ------------------------------------------------------------------ *)
(* E4: causal order through a partition                                *)
(* ------------------------------------------------------------------ *)

let partition_setup ~n ~heal =
  let blocks = [ [ 0; 1; 2 ]; [ 3; 4 ] ] in
  let spec = { Net.blocks; from_time = 5; until_time = heal } in
  { (Harness.Stacks.default ~n ~deadline:(heal * 3)) with
    delay = Net.partitioned spec ~base:(Net.constant 1);
    omega = oracle ~pre:(Detectors.Omega.Blockwise blocks) heal }

let e4 () =
  section "E4" "causal order holds during leader disagreement (partition, claim P3)";
  row "  %-10s %-18s %-16s %-18s %-12s" "heal at" "causal violations"
    "stability tau" "total-order tau" "diverged";
  List.iter
    (fun heal ->
       let setup = partition_setup ~n:5 ~heal in
       let inputs =
         Harness.Stacks.spread_posts ~n:5 ~count:20 ~from_time:8 ~every:3
       in
       let trace = Harness.Stacks.run_etob ~inputs setup
           Harness.Stacks.Algorithm_5 in
       let run = Properties.etob_run_of_trace setup.Harness.Stacks.pattern trace in
       let report = Properties.etob_report run in
       row "  %-10d %-18d %-16d %-18d %-12s" heal
         (List.length report.Properties.causal_order.Properties.violations)
         report.Properties.tau_stability
         report.Properties.tau_total_order
         (bool_mark (Properties.etob_convergence_time report > 0)))
    [ 40; 60; 80 ];
  row "  expected: 0 causal violations in every row, while the minority side's";
  row "  sequences are genuinely revised around the healing time (stability tau";
  row "  near heal).  Total order across the partition is vacuous while the";
  row "  sides' delivered sets are disjoint."

(* ------------------------------------------------------------------ *)
(* E5: strong TOB when Omega is stable from the start                  *)
(* ------------------------------------------------------------------ *)

let e5 () =
  section "E5" "with tau_Omega = 0, Algorithm 5 implements full TOB (claim P2)";
  row "  %-4s %-16s %-14s %-12s %-12s" "n" "implementation" "delays"
    "strong TOB" "base props";
  (* [count] posts, one every 4 ticks from 5; the deadline leaves the same
     time after the last post as 12 posts had. *)
  let cell ?(count = 12) n impl =
    let setup = { (Harness.Stacks.default ~n ~deadline:(400 + (4 * (count - 12)))) with
                  delay = Net.uniform ~min:1 ~max:6; omega = oracle 0 } in
    let inputs = Harness.Stacks.spread_posts ~n ~count ~from_time:5 ~every:4 in
    let trace = Harness.Stacks.run_etob ~inputs setup impl in
    let report = Harness.Stacks.etob_report setup trace in
    row "  %-4d %-16s %-14s %-12s %-12s" n (impl_name impl) "uniform 1-6"
      (bool_mark (Properties.is_strong_tob report))
      (bool_mark (Properties.etob_base_ok report))
  in
  List.iter
    (fun n ->
       List.iter (cell n)
         [ Harness.Stacks.Algorithm_5; Harness.Stacks.Algorithm_1_over_4;
           Harness.Stacks.Paxos_baseline ])
    [ 3; 5 ];
  row "  at 1000 posts (deadline moved with the last post):";
  List.iter (cell ~count:1000 5)
    [ Harness.Stacks.Algorithm_5; Harness.Stacks.Paxos_baseline ];
  row "  expected: strong TOB = yes everywhere"

(* ------------------------------------------------------------------ *)
(* E6: transformation overhead (Theorem 1 in messages per delivery)    *)
(* ------------------------------------------------------------------ *)

let e6 () =
  section "E6" "message cost of the Theorem 1 transformations";
  row "  %-22s %-12s %-16s %-18s" "stack" "delivered" "messages sent"
    "msgs per delivery";
  let workload n =
    Harness.Stacks.spread_posts ~n ~count:12 ~from_time:5 ~every:5
  in
  List.iter
    (fun impl ->
       let setup = { (Harness.Stacks.default ~n:3 ~deadline:300) with
                     omega = oracle 10 } in
       let trace = Harness.Stacks.run_etob ~inputs:(workload 3) setup impl in
       let run = Properties.etob_run_of_trace setup.Harness.Stacks.pattern trace in
       let delivered = List.length (Properties.final_d run 0) in
       let sent = Trace.sent trace in
       row "  %-22s %-12d %-16d %-18.1f" (impl_name impl) delivered sent
         (float_of_int sent /. float_of_int (max 1 delivered)))
    [ Harness.Stacks.Algorithm_5; Harness.Stacks.Algorithm_1_over_4;
      Harness.Stacks.Paxos_baseline ];
  (* EC side: direct Algorithm 4 vs Algorithm 2 over Algorithm 5. *)
  let values self ~instance = Value.Num ((self * 100) + instance) in
  let ec_cost name runner =
    let setup = { (Harness.Stacks.default ~n:3 ~deadline:600) with
                  omega = oracle 10 } in
    let trace = runner setup in
    let run = Properties.ec_run_of_trace setup.Harness.Stacks.pattern trace in
    let decided = List.length (Properties.decided_instances run) in
    row "  %-22s %-12d %-16d %-18.1f" name decided (Trace.sent trace)
      (float_of_int (Trace.sent trace) /. float_of_int (max 1 decided))
  in
  ec_cost "EC direct (Alg. 4)"
    (fun setup ->
       Harness.Stacks.run_ec_omega setup ~propose_value:values ~max_instance:20);
  ec_cost "EC via ETOB (Alg. 2/5)"
    (fun setup ->
       Harness.Stacks.run_ec_via_etob setup Harness.Stacks.Algorithm_5
         ~propose_value:values ~max_instance:20);
  row "  expected: transformations correct but costlier than the direct algorithms"

(* ------------------------------------------------------------------ *)
(* E7: the CHT extraction stabilizes on a correct leader               *)
(* ------------------------------------------------------------------ *)

let e7 () =
  section "E7" "CHT reduction: emulated Omega stabilizes on a correct process";
  row "  %-28s %-18s %-14s %-10s" "scenario" "per-round output"
    "stabilized at" "correct";
  let budget = Cht.Extraction.default_budget in
  (* The adversarial Omega prefix trusts p1 everywhere — in the crash
     scenarios p1 is faulty, so early extraction rounds are genuinely
     misled and the table shows the "eventually" at work. *)
  let scenarios =
    [ ("n=2, failure-free, omega", `Omega (Failures.none ~n:2, 18));
      ("n=2, p1 crashes, omega", `Omega (Failures.of_crashes ~n:2 [ (1, 14) ], 18));
      ("n=2, failure-free, <>P", `Ep (Failures.none ~n:2, 12));
      ("n=3, p2 crashes, omega", `Omega (Failures.of_crashes ~n:3 [ (2, 14) ], 18)) ]
  in
  List.iter
    (fun (name, spec) ->
       let pattern, dag, algo =
         match spec with
         | `Omega (pattern, stab) ->
           let omega =
             Detectors.Omega.make ~pre:(Detectors.Omega.Fixed 1) pattern
               ~stabilize_at:stab
           in
           let sampler p t =
             Cht.Fd_value.leader (Detectors.Omega.query omega ~self:p ~now:t)
           in
           (pattern,
            Cht.Dag.build ~pattern ~sampler ~period:4 ~gossip:4 ~rounds:14,
            Cht.Pure.ec_omega)
         | `Ep (pattern, stab) ->
           let ep = Detectors.Suspicions.eventually_perfect pattern ~stabilize_at:stab in
           let sampler p t =
             Cht.Fd_value.suspects (Detectors.Suspicions.query_ep ep ~self:p ~now:t)
           in
           (pattern,
            Cht.Dag.build ~pattern ~sampler ~period:4 ~gossip:4 ~rounds:14,
            Cht.Pure.ec_trusted)
       in
       let per_round =
         Cht.Extraction.emulate ~algo ~dag ~budget ~rounds:5 ~round_horizon:8 ()
       in
       let outputs =
         String.concat " "
           (List.map
              (fun round ->
                 "[" ^ String.concat "," (List.map string_of_int round) ^ "]")
              per_round)
       in
       match Cht.Extraction.stabilization ~pattern per_round with
       | Some (r, leader) ->
         row "  %-28s %-18s round %-8d %-10s" name outputs r
           (bool_mark (Failures.is_correct pattern leader))
       | None -> row "  %-28s %-18s %-14s %-10s" name outputs "never" "-")
    scenarios;
  row "  expected: every scenario stabilizes on a correct process"

(* ------------------------------------------------------------------ *)
(* E8: EIC equivalence (Appendix A)                                    *)
(* ------------------------------------------------------------------ *)

let e8 () =
  section "E8" "eventual irrevocable consensus (Appendix A)";
  row "  %-14s %-14s %-18s %-16s %-14s" "tau_Omega" "revocations"
    "integrity index" "eic agreement" "ec recovered";
  List.iter
    (fun tau ->
       let flag self ~instance = Value.Flag ((self + instance) mod 2 = 0) in
       let setup = { (Harness.Stacks.default ~n:3 ~deadline:500) with
                     omega = oracle ~pre:Detectors.Omega.Self_trust tau } in
       let trace = Harness.Stacks.run_eic_over_ec setup ~propose_value:flag
           ~max_instance:60 in
       let run = Properties.eic_run_of_trace setup.Harness.Stacks.pattern trace in
       (* Algorithm 7 on top recovers plain EC. *)
       let trace7 = Harness.Stacks.run_ec_via_eic setup ~propose_value:flag
           ~max_instance:60 in
       let run7 = Properties.ec_run_of_trace setup.Harness.Stacks.pattern trace7 in
       let report7 = Properties.ec_report run7 ~instances:60 in
       row "  %-14d %-14d %-18d %-16s %-14s" tau
         (Properties.eic_revocation_count run)
         (Properties.eic_integrity_index run)
         (verdict_mark (Properties.check_eic_agreement run))
         (bool_mark (Properties.ec_ok ~agreement_by:60 report7)))
    [ 0; 30; 60 ];
  row "  expected: revocations grow with tau_Omega but stay finite; agreement";
  row "  holds; Algorithm 7 recovers EC in every row"

(* ------------------------------------------------------------------ *)
(* E9: the eventually consistent replicated KV store                   *)
(* ------------------------------------------------------------------ *)

let e9 () =
  section "E9" "replicated KV across a partition: divergence window and convergence";
  row "  %-16s %-12s %-16s %-14s %-12s" "implementation" "converged"
    "divergence ticks" "conv. time" "rollbacks";
  let heal = 60 in
  let inputs =
    [ (10, 0, Replication.Replica.Submit (Replication.Command.put "x" "left"));
      (12, 3, Replication.Replica.Submit (Replication.Command.put "x" "right"));
      (20, 1, Replication.Replica.Submit (Replication.Command.put "y" "1"));
      (25, 4, Replication.Replica.Submit (Replication.Command.put "z" "2")) ]
  in
  List.iter
    (fun impl ->
       let setup = partition_setup ~n:5 ~heal in
       let module R = Replication.Replica.Make (Replication.Machines.Kv) in
       let make_node ctx =
         let proto_node, service = Harness.Stacks.etob_node setup impl ctx in
         let _, replica_node = R.create ctx ~etob:service in
         (Engine.stack [ proto_node; replica_node ], ())
       in
       let trace, _ =
         Engine.run_with (Harness.Stacks.engine_config setup) ~make_node ~inputs
       in
       let run =
         Replication.Convergence.run_of_trace setup.Harness.Stacks.pattern trace
       in
       row "  %-16s %-12s %-16d %-14d %-12d" (impl_name impl)
         (bool_mark (Replication.Convergence.converged run))
         (Replication.Convergence.divergence_ticks ~from_time:10 run)
         (Replication.Convergence.convergence_time run)
         (Replication.Convergence.total_rollbacks run))
    [ Harness.Stacks.Algorithm_5; Harness.Stacks.Paxos_baseline ];
  row "  expected: ETOB diverges during the partition, converges shortly after";
  row "  healing, with visible rollbacks; Paxos never diverges (it stalls instead)"

(* ------------------------------------------------------------------ *)
(* E11: committed-prefix indications (Section 7 extension)             *)
(* ------------------------------------------------------------------ *)

let e11 () =
  section "E11" "committed-prefix indications on top of ETOB (Section 7)";
  row "  %-26s %-12s %-12s %-14s %-14s" "scenario" "delivered" "committed"
    "commit stable" "consistent";
  let scenarios =
    [ ("stable majority", { (Harness.Stacks.default ~n:5 ~deadline:250) with
                            omega = oracle 0 },
       Harness.Stacks.spread_posts ~n:5 ~count:10 ~from_time:8 ~every:4);
      ("minority after t=50",
       { (Harness.Stacks.default ~n:5 ~deadline:300) with
         pattern = Failures.of_crashes ~n:5 [ (2, 50); (3, 50); (4, 50) ];
         omega = oracle 0 },
       [ (10, 0, Harness.Stacks.Post "a"); (20, 1, Harness.Stacks.Post "b");
         (80, 0, Harness.Stacks.Post "c"); (120, 1, Harness.Stacks.Post "d") ]);
      ("partition, heal at 60", partition_setup ~n:5 ~heal:60,
       Harness.Stacks.spread_posts ~n:5 ~count:10 ~from_time:8 ~every:4) ]
  in
  List.iter
    (fun (name, setup, inputs) ->
       let trace = Harness.Stacks.run_etob_with_commits ~inputs setup in
       let pattern = setup.Harness.Stacks.pattern in
       let commits = Properties.commit_run_of_trace pattern trace in
       let etob = Properties.etob_run_of_trace pattern trace in
       let p = List.hd (Failures.correct pattern) in
       row "  %-26s %-12d %-12d %-14s %-14s" name
         (List.length (Properties.final_d etob p))
         (Properties.committed_count commits p)
         (verdict_mark (Properties.check_commit_stability commits))
         (verdict_mark (Properties.check_commit_consistent commits etob)))
    scenarios;
  row "  expected: everything commits under a stable majority; commitments stall";
  row "  (but never roll back) without one; the minority side's messages commit";
  row "  only once the partition heals"

(* ------------------------------------------------------------------ *)
(* E12: ablations (DESIGN.md section 6)                                *)
(* ------------------------------------------------------------------ *)

let e12 () =
  section "E12" "ablations: omega source, promote period, tie-break, link order";
  (* (a) Oracle vs emulated Omega: the emulation pays its own stabilization. *)
  row "  -- omega source (algorithm 5, n=3, constant delay 2) --";
  row "  %-20s %-30s %-16s" "omega" "probe latency (ticks)" "convergence tau";
  List.iter
    (fun (name, omega) ->
       let setup = { (Harness.Stacks.default ~n:3 ~deadline:400) with
                     delay = Net.constant 2; omega; timer_period = 2 } in
       let inputs =
         List.init 6 (fun i ->
             (100 + (i * 30), i mod 3, Harness.Stacks.Post (Printf.sprintf "probe%d" i)))
       in
       let trace = Harness.Stacks.run_etob ~inputs setup Harness.Stacks.Algorithm_5 in
       let run = Properties.etob_run_of_trace setup.Harness.Stacks.pattern trace in
       let report = Properties.etob_report run in
       let lat =
         match Harness.Stats.of_list (probe_latencies trace run) with
         | Some s -> Format.asprintf "%a" Harness.Stats.pp s
         | None -> "n/a"
       in
       row "  %-20s %-30s %-16d" name lat
         (Properties.etob_convergence_time report))
    [ ("oracle (tau=0)", oracle 0);
      ("elected (hb=4)", Harness.Stacks.Elected { initial_timeout = 4 }) ];
  (* (b) Promote period Delta_t: latency vs message cost. *)
  row "  -- promote period Delta_t (algorithm 5, n=3, delay 2) --";
  row "  %-10s %-30s %-14s" "Delta_t" "probe latency (ticks)" "msgs sent";
  List.iter
    (fun timer_period ->
       let setup = { (Harness.Stacks.default ~n:3 ~deadline:400) with
                     delay = Net.constant 2; omega = oracle 0; timer_period } in
       let inputs =
         List.init 6 (fun i ->
             (100 + (i * 30), i mod 3, Harness.Stacks.Post (Printf.sprintf "probe%d" i)))
       in
       let trace = Harness.Stacks.run_etob ~inputs setup Harness.Stacks.Algorithm_5 in
       let run = Properties.etob_run_of_trace setup.Harness.Stacks.pattern trace in
       let lat =
         match Harness.Stats.of_list (probe_latencies trace run) with
         | Some s -> Format.asprintf "%a" Harness.Stats.pp s
         | None -> "n/a"
       in
       row "  %-10d %-30s %-14d" timer_period lat (Trace.sent trace))
    [ 1; 2; 4; 8 ];
  (* (c) UpdatePromote tie-break: any topological choice is correct. *)
  row "  -- UpdatePromote tie-break (partition scenario, all properties) --";
  row "  %-16s %-12s %-14s" "tie-break" "base props" "causal order";
  let tie_breaks =
    [ ("(origin,sn)", Causal_graph.default_tie_break);
      ("reversed", fun a b -> Causal_graph.default_tie_break b a);
      ("by-sn-first",
       fun a b -> compare (a.App_msg.sn, a.App_msg.origin) (b.App_msg.sn, b.App_msg.origin)) ]
  in
  List.iter
    (fun (name, tie_break) ->
       let setup = partition_setup ~n:5 ~heal:50 in
       let omega_of = Harness.Stacks.omega_module setup in
       let make_node ctx =
         let omega, omega_node = omega_of ctx in
         let t, node = Etob_omega.create ~tie_break ctx ~omega in
         (Engine.stack [ omega_node; node;
                         Harness.Stacks.post_driver (Etob_omega.service t) ], ())
       in
       let inputs = Harness.Stacks.spread_posts ~n:5 ~count:12 ~from_time:8 ~every:3 in
       let trace, _ =
         Engine.run_with (Harness.Stacks.engine_config setup) ~make_node ~inputs
       in
       let run = Properties.etob_run_of_trace setup.Harness.Stacks.pattern trace in
       let report = Properties.etob_report run in
       row "  %-16s %-12s %-14s" name
         (bool_mark (Properties.etob_base_ok report))
         (verdict_mark report.Properties.causal_order))
    tie_breaks;
  (* (d) FIFO vs reordering links x stale-promote guard: claim (P2) needs
     either FIFO links or the guard. *)
  row "  -- link ordering x stale-promote guard (algorithm 5, stable omega) --";
  row "  %-16s %-10s %-14s %-14s" "links" "guard" "strong TOB" "base props";
  List.iter
    (fun (lname, delay) ->
       List.iter
         (fun (gname, mutation) ->
            (* Stateful models (fifo) re-instantiate per run on their own. *)
            let setup = { (Harness.Stacks.default ~n:4 ~deadline:300) with
                          delay; omega = oracle 0 } in
            let omega_of = Harness.Stacks.omega_module setup in
            let make_node ctx =
              let omega, omega_node = omega_of ctx in
              let t, node = Etob_omega.create ?mutation ctx ~omega in
              (Engine.stack [ omega_node; node;
                              Harness.Stacks.post_driver (Etob_omega.service t) ], ())
            in
            let inputs =
              Harness.Stacks.spread_posts ~n:4 ~count:10 ~from_time:5 ~every:4
            in
            let trace, _ =
              Engine.run_with (Harness.Stacks.engine_config setup) ~make_node ~inputs
            in
            let report = Harness.Stacks.etob_report setup trace in
            row "  %-16s %-10s %-14s %-14s" lname gname
              (bool_mark (Properties.is_strong_tob report))
              (bool_mark (Properties.etob_base_ok report)))
         [ ("on", None); ("off", Some Etob_omega.Disable_stale_guard) ])
    [ ("reordering", Net.uniform ~min:1 ~max:7);
      ("fifo", Net.fifo ~base:(Net.uniform ~min:1 ~max:7)) ];
  row "  expected: correct under every ablation; the emulated omega adds its";
  row "  own stabilization; larger Delta_t trades latency for fewer messages"

(* ------------------------------------------------------------------ *)
(* E13: why Omega — the leaderless baseline has no bounded tau         *)
(* ------------------------------------------------------------------ *)

let e13 () =
  section "E13" "the information content of Omega: leaderless gossip vs Algorithm 5";
  row "  %-16s %-18s %-22s %-22s" "workload ends" "pairs of posts"
    "gossip stability tau" "Alg. 5 stability tau";
  List.iter
    (fun workload_end ->
       let pairs = workload_end / 10 in
       let inputs =
         List.concat
           (List.init pairs (fun i ->
                let t = 10 + (i * 10) in
                [ (t, 0, Harness.Stacks.Post (Printf.sprintf "a%d" i));
                  (t, 2, Harness.Stacks.Post (Printf.sprintf "b%d" i)) ]))
       in
       let deadline = workload_end + 120 in
       let mk () = { (Harness.Stacks.default ~n:3 ~deadline) with
                     delay = Net.uniform ~min:1 ~max:4; omega = oracle 0 } in
       let setup = mk () in
       let gossip = Harness.Stacks.run_gossip_order ~inputs setup in
       let g_tau =
         (Properties.etob_report
            (Properties.etob_run_of_trace setup.Harness.Stacks.pattern gossip))
           .Properties.tau_stability
       in
       let setup = mk () in
       let etob = Harness.Stacks.run_etob ~inputs setup Harness.Stacks.Algorithm_5 in
       let e_tau =
         (Properties.etob_report
            (Properties.etob_run_of_trace setup.Harness.Stacks.pattern etob))
           .Properties.tau_stability
       in
       row "  %-16d %-18d %-22d %-22d" workload_end pairs g_tau e_tau)
    [ 100; 200; 400 ];
  row "  expected: the gossip baseline's tau tracks the workload end (no";
  row "  environment-bounded stabilization exists without Omega), while";
  row "  Algorithm 5's tau stays at its tau_Omega-determined constant (0 here)"

(* ------------------------------------------------------------------ *)
(* E14: session guarantees across a partition                          *)
(* ------------------------------------------------------------------ *)

let e14 () =
  section "E14" "session guarantees: what clients see (partition, heal at t=120)";
  let heal = 120 in
  let setup = { (partition_setup ~n:5 ~heal) with deadline = 320 } in
  let module Dual = Replication.Committed_replica.Make (Replication.Machines.Kv) in
  let make_node ctx =
    let omega, omega_node = Harness.Stacks.omega_module setup ctx in
    let etob, etob_node = Etob_omega.create ctx ~omega in
    let service = Etob_omega.service etob in
    let replica, replica_node =
      Dual.create ctx ~etob:service ~omega
        ~promotion:(fun () -> Etob_omega.promotion etob)
    in
    let key = Replication.Session.key_of ctx.Engine.self in
    let lookup state = Replication.Machines.String_map.find_opt key state in
    let views =
      [ { Replication.Session.v_name = "speculative";
          v_lookup = (fun () -> lookup (Dual.speculative_state replica)) };
        { Replication.Session.v_name = "committed";
          v_lookup = (fun () -> lookup (Dual.committed_state replica)) } ]
    in
    let _, session_node =
      Replication.Session.create ctx ~session:ctx.Engine.self ~views
        ~submit:(Dual.submit replica)
    in
    (Engine.stack [ omega_node; etob_node; replica_node; session_node ], ())
  in
  let inputs =
    List.concat_map
      (fun p ->
         List.init 23 (fun i -> (20 + (i * 12), p, Replication.Session.Session_step)))
      [ 0; 3 ]
  in
  let trace, _ =
    Engine.run_with (Harness.Stacks.engine_config setup) ~make_node ~inputs
  in
  row "  %-22s %-14s %-8s %-8s %-8s %-16s" "session" "view" "reads" "RYW"
    "MR" "last violation";
  List.iter
    (fun (session, side) ->
       List.iter
         (fun view ->
            let t = Replication.Session.tally_of_trace trace ~session ~view in
            row "  %-22s %-14s %-8d %-8d %-8d %-16d" side view t.Replication.Session.reads
              t.Replication.Session.ryw_violations t.Replication.Session.mr_violations
              t.Replication.Session.last_violation)
         [ "speculative"; "committed" ])
    [ (0, "p0 (majority side)"); (3, "p3 (minority side)") ];
  row "  expected: the majority session is clean; the minority's committed view";
  row "  violates read-your-writes for the whole partition (nothing certifies);";
  row "  every stream is clean shortly after the heal"

(* ------------------------------------------------------------------ *)
(* E15: multi-seed sweep — E1 latencies with error bars                *)
(* ------------------------------------------------------------------ *)

(* One E1-style run per seed, fanned over domains; jittered links so the
   seed actually matters.  Besides the printed table, emits a
   machine-readable BENCH_sweep.json for tracking across revisions. *)
let e15 () =
  section "E15" "multi-seed E1: probe latency, mean +/- stddev over 32 seeds";
  let since = Record.since () in
  let n = 3 and seeds = 32 in
  let domains = Harness.Sweep.default_domains () in
  row "  %d seeds per implementation, %d domains" seeds domains;
  row "  %-16s %-18s %-14s %-10s" "implementation" "mean latency" "stddev" "runs";
  let sweep_impl impl =
    let per_seed ~seed =
      let setup = { (Harness.Stacks.default ~n ~deadline:600) with
                    seed;
                    delay = Net.uniform ~min:2 ~max:6; omega = oracle 0;
                    timer_period = 1 } in
      let inputs =
        (10, 0, Harness.Stacks.Post "warmup")
        :: List.init 8 (fun i ->
            (60 + (i * 40), (i + 1) mod n,
             Harness.Stacks.Post (Printf.sprintf "probe%d" i)))
      in
      let trace = Harness.Stacks.run_etob ~inputs setup impl in
      let run = Properties.etob_run_of_trace setup.Harness.Stacks.pattern trace in
      mean (probe_latencies trace run)
    in
    let results =
      Harness.Sweep.map ~domains
        ~seeds:(Harness.Sweep.seed_range ~base:1 ~count:seeds) per_seed
    in
    let means = List.map (fun r -> r.Harness.Sweep.value) results in
    match Harness.Sweep.mean_stddev means with
    | None -> assert false
    | Some (m, sd) ->
      row "  %-16s %-18.2f %-14.2f %-10d" (impl_name impl) m sd (List.length means);
      Record.(
        Obj
          [ ("impl", String (impl_name impl)); ("mean_latency", Float m);
            ("stddev", Float sd); ("runs", Int (List.length means)) ])
  in
  let rows =
    List.map sweep_impl
      [ Harness.Stacks.Algorithm_5; Harness.Stacks.Paxos_baseline ]
  in
  row "  expected: ETOB mean below TOB mean; stddev > 0 under jittered links";
  Record.write bench_dir
    (Record.make ~name:"sweep" ~experiment:"E15" ~since
       ~params:[ ("seeds", Int seeds); ("domains", Int domains) ]
       ~rows [])

(* ------------------------------------------------------------------ *)
(* E16: adversarial explorer — detection budget per seeded mutant      *)
(* ------------------------------------------------------------------ *)

(* How many adversity plans does the bounded explorer need before each
   seeded single-decision mutant of Algorithm 5 is caught?  Reported as
   the plan budget consumed at first detection, per mutant and per seed,
   plus the shrunk counterexample size.  The faithful protocol is run
   under the full budget as the control row.  Gates: every mutant is
   found within the budget at every seed, and the control stays clean.
   Emits machine-readable BENCH_explore.json. *)
let e16 () =
  section "E16" "adversarial explorer: plans-to-detection per Algorithm 5 mutant";
  let since = Record.since () in
  let budget = 500 and max_adversities = 4 in
  let seeds = [ 1; 7; 42 ] in
  row "  budget %d plans, <=%d adversities per plan, seeds %s" budget
    max_adversities
    (String.concat "," (List.map string_of_int seeds));
  row "  %-24s %-10s %-14s %-12s" "mutant" "seed" "plans-to-find" "shrunk-size";
  let module B = Harness.Builder in
  let target mutation =
    { (B.template Harness.Stacks.Algorithm_5) with B.mutation }
  in
  let explore t ~seed = B.explore t ~seed ~budget ~max_adversities in
  let found e = Option.is_some e.B.found in
  let result name seed e shrunk =
    Record.(
      Obj
        [ ("target", String name); ("seed", Int seed);
          ("plans_run", Int e.B.plans_run); ("found", Bool (found e));
          ("shrunk_size", shrunk) ])
  in
  let mutants =
    List.concat_map
      (fun m ->
         List.map
           (fun seed ->
              let name = Etob_omega.mutation_name m in
              let t = target (Some m) in
              let e = explore t ~seed in
              let shrunk =
                match e.B.found with
                | None ->
                  row "  %-24s %-10d %-14s %-12s" name seed "NOT FOUND" "-";
                  Record.Null
                | Some o ->
                  let size =
                    Harness.Adversity.size (B.shrink t o).B.builder.B.plan
                  in
                  row "  %-24s %-10d %-14d %-12d" name seed e.B.plans_run size;
                  Record.Int size
              in
              ( result name seed e shrunk,
                Record.gate
                  (Printf.sprintf "%s seed %d found" name seed)
                  (Bool (found e)) Eq (Bool true) ))
           seeds)
      Etob_omega.all_mutations
  in
  let seed = List.hd seeds in
  let control = explore (target None) ~seed in
  row "  %-24s %-10d %-14s %-12s" "(faithful control)" seed
    (match control.B.found with
     | None -> Printf.sprintf "clean/%d" control.B.plans_run
     | Some _ -> "VIOLATION")
    "-";
  row "  expected: every mutant found within budget; faithful row clean";
  Record.write bench_dir
    (Record.make ~name:"explore" ~experiment:"E16" ~since
       ~params:
         [ ("budget", Int budget); ("max_adversities", Int max_adversities);
           ("seeds", List (List.map (fun s -> Record.Int s) seeds)) ]
       ~rows:(List.map fst mutants @ [ result "faithful" seed control Null ])
       (List.map snd mutants
        @ [ Record.gate
              (Printf.sprintf "faithful seed %d found" seed)
              (Bool (found control)) Eq (Bool false) ]))

(* ------------------------------------------------------------------ *)
(* E17: crash-recovery — catch-up time and disk-fault tolerance        *)
(* ------------------------------------------------------------------ *)

(* The recoverable stack (Algorithm 5 under the write-ahead log and the
   retransmission links) under one mid-run downtime window, with
   increasingly damaged stable storage.  Reported per scenario: how long
   the restarted process takes to produce its first post-restart output
   revision, how much state the replay recovered, what the links re-sent,
   and whether the post-recovery run still satisfies every checked
   property.  The amnesia mutant (skip-log-replay) is the negative
   control: it must be caught by the distinct-broadcasts checker.
   Enforced: no faithful row has an ETOB violation, each disk fault
   costs at least one record (so it took effect), and the amnesia row
   violates distinct-broadcasts.  Besides the table, emits
   machine-readable BENCH_recovery.json. *)
let e17 () =
  section "E17" "crash-recovery: replay catch-up, disk faults, post-recovery verdicts";
  let since = Record.since () in
  let n = 4 and deadline = 300 and proc = 1 and at = 60 in
  let rows_spec =
    [ ("short-window", 80, None, None);
      ("long-window", 140, None, None);
      ("torn-tail", 140, Some Persist.Store.Torn_tail, None);
      ("lost-suffix-3", 140, Some (Persist.Store.Lost_suffix 3), None);
      ("corrupt-record", 140, Some Persist.Store.Corrupt_record, None);
      ("amnesia-mutant", 140, None, Some Recoverable.Skip_log_replay) ]
  in
  row "  p%d down [%d, recover), 12 posts spread over %d ticks, n=%d" proc at
    deadline n;
  row "  %-16s %-9s %-9s %-9s %-7s %-6s %-8s %-8s %-6s" "scenario" "recover"
    "catchup" "replayed" "resent" "lost" "causal" "distinct" "tau";
  let run_row (label, recover_at, fault, mutation) =
    let setup =
      { (Harness.Stacks.default ~n ~deadline) with
        delay = Net.uniform ~min:1 ~max:3;
        pattern =
          Failures.crash_recover_at (Failures.none ~n) proc ~at ~recover_at;
        omega = oracle 0 }
    in
    let inputs =
      Harness.Stacks.spread_posts ~n ~count:12 ~from_time:8 ~every:20
    in
    let stores = Persist.Store.pool ~n in
    Option.iter (fun k -> Persist.Store.arm_fault stores.(proc) k) fault;
    let trace, handles, stores =
      Harness.Stacks.run_recoverable ~inputs ?mutation ~stores setup
    in
    let run = Properties.etob_run_of_trace setup.Harness.Stacks.pattern trace in
    let report = Properties.etob_report run in
    (* Catch-up: delay until the restarted process's first output revision. *)
    let catchup =
      match
        List.filter_map
          (fun (t, p, o) ->
             match o with
             | Etob_intf.Etob_deliver _ when p = proc && t >= recover_at ->
               Some t
             | _ -> None)
          (Trace.outputs trace)
      with
      | [] -> -1
      | ts -> List.fold_left min max_int ts - recover_at
    in
    let resent =
      Array.fold_left (fun acc h -> acc + Recoverable.retransmitted h) 0 handles
    in
    let st = Persist.Store.stats stores.(proc) in
    let causal = report.Properties.causal_order
    and distinct = report.Properties.distinct_broadcasts in
    let tau = Properties.etob_convergence_time report in
    let lost = st.Persist.Store.records_lost in
    let violations = List.length (Properties.etob_violations report) in
    let gates =
      (match mutation with
       | None -> Record.gate (label ^ " ETOB violations") (Int violations) Eq (Int 0)
       | Some _ ->
         Record.gate (label ^ " distinct-broadcasts ok") (Bool distinct.ok) Eq
           (Bool false))
      :: (if Option.is_none fault then []
          else [ Record.gate (label ^ " records lost") (Int lost) Ge (Int 1) ])
    in
    row "  %-16s %-9d %-9d %-9d %-7d %-6d %-8s %-8s %-6d" label recover_at
      catchup
      (Recoverable.replayed_msgs handles.(proc))
      resent lost (verdict_mark causal) (verdict_mark distinct) tau;
    ( Record.(
        Obj
          [ ("scenario", String label); ("recover_at", Int recover_at);
            ("catchup_ticks", Int catchup);
            ("replayed_msgs", Int (Recoverable.replayed_msgs handles.(proc)));
            ("retransmitted", Int resent);
            ("restarts", Int st.Persist.Store.restarts); ("records_lost", Int lost);
            ("corrupt_detected", Int st.Persist.Store.corrupt_detected);
            ("causal_order_ok", Bool causal.Properties.ok);
            ("distinct_broadcasts_ok", Bool distinct.Properties.ok);
            ("convergence_tau", Int tau) ]),
      gates )
  in
  let results = List.map run_row rows_spec in
  row "  expected: faithful rows all ok with bounded catch-up; the amnesia";
  row "  mutant's distinct column VIOLATED (sequence numbers reused)";
  row "  Enforced, with at least one record lost under each disk fault.";
  Record.write bench_dir
    (Record.make ~name:"recovery" ~experiment:"E17" ~since
       ~params:[ ("n", Int n); ("deadline", Int deadline); ("crash_at", Int at) ]
       ~rows:(List.map fst results)
       (List.concat_map snd results))

(* ------------------------------------------------------------------ *)
(* E18: lossy-partition heal — anti-entropy digest vs flood            *)
(* ------------------------------------------------------------------ *)

(* Algorithm 5 plus the anti-entropy layer under a lossy partition that
   isolates one process across most of the workload: cross-block traffic
   is LOST (not buffered), so after the heal the isolated replica and the
   majority must re-teach each other whatever each side missed.  Digest
   mode (constant-size summaries answered with O(missing) deltas) is
   compared with the Flood strawman (periodic full-set pushes): both must
   converge — the watchdog verdict and heal-to-convergence time are
   reported — but the digest run must carry strictly fewer application
   messages in its repair traffic.  That inequality is enforced, not just
   printed.  Besides the table, emits machine-readable
   BENCH_partition.json. *)
let e18 () =
  section "E18" "lossy-partition heal: anti-entropy digest vs flood repair traffic";
  let since = Record.since () in
  let n = 4 and deadline = 240 in
  let from_time = 40 and until_time = 120 in
  let spec = { Net.blocks = [ [ 0; 1; 2 ]; [ 3 ] ]; from_time; until_time } in
  let inputs = Harness.Stacks.spread_posts ~n ~count:12 ~from_time:8 ~every:8 in
  let last_post = 8 + (11 * 8) in
  let mode_name = function
    | Anti_entropy.Digest -> "digest"
    | Anti_entropy.Flood -> "flood"
  in
  row "  p3 cut off by a LOSSY partition [%d, %d); 12 posts up to t=%d; n=%d"
    from_time until_time last_post n;
  row "  %-8s %-10s %-9s %-9s %-8s %-8s %-9s %-8s %-6s" "mode" "converged"
    "heal2cvg" "digests" "deltas" "floods" "payload" "learned" "causal";
  let run_mode mode =
    let setup =
      { (Harness.Stacks.default ~n ~deadline) with
        delay = Net.uniform ~min:1 ~max:3;
        faults = Net.lossy_partition spec;
        omega = oracle 0 }
    in
    let trace, handles =
      Harness.Stacks.run_etob_ae ~inputs
        ~ae_config:{ Anti_entropy.default_config with Anti_entropy.mode }
        setup
    in
    let run = Properties.etob_run_of_trace setup.Harness.Stacks.pattern trace in
    let report = Properties.etob_report run in
    let settle = max until_time last_post in
    let converged_at =
      match Harness.Watchdog.check ~settle ~bound:(deadline - settle) run with
      | Harness.Watchdog.Converged { at } -> at
      | Harness.Watchdog.Stalled _ -> -1
    in
    let sum f =
      Array.fold_left
        (fun acc (_, ae) -> acc + f (Anti_entropy.stats ae))
        0 handles
    in
    let digests = sum (fun s -> s.Anti_entropy.digests_sent)
    and deltas = sum (fun s -> s.Anti_entropy.deltas_sent)
    and floods = sum (fun s -> s.Anti_entropy.floods_sent)
    and payload = sum (fun s -> s.Anti_entropy.delta_msgs + s.Anti_entropy.flood_msgs)
    and learned = sum (fun s -> s.Anti_entropy.learned) in
    let causal = report.Properties.causal_order in
    let heal2cvg = if converged_at < 0 then -1 else converged_at - until_time in
    row "  %-8s %-10d %-9d %-9d %-8d %-8d %-9d %-8d %-6s" (mode_name mode)
      converged_at heal2cvg digests deltas floods payload learned
      (verdict_mark causal);
    ( Record.gate (mode_name mode ^ " converged_at") (Int converged_at) Ge (Int 0),
      payload,
      Record.(
        Obj
          [ ("mode", String (mode_name mode)); ("converged_at", Int converged_at);
            ("heal_to_convergence", Int heal2cvg); ("digests_sent", Int digests);
            ("deltas_sent", Int deltas); ("floods_sent", Int floods);
            ("payload_msgs", Int payload); ("learned", Int learned);
            ("causal_order_ok", Bool causal.Properties.ok) ]) )
  in
  let d_converged, d_payload, d_row = run_mode Anti_entropy.Digest in
  let f_converged, f_payload, f_row = run_mode Anti_entropy.Flood in
  row "  expected: both modes converge shortly after the heal; the digest run's";
  row "  repair payload is strictly smaller than the flood run's (enforced)";
  Record.write bench_dir
    (Record.make ~name:"partition" ~experiment:"E18" ~since
       ~params:
         [ ("n", Int n); ("deadline", Int deadline);
           ( "partition",
             Obj
               [ ("isolated", Int 3); ("from", Int from_time);
                 ("until", Int until_time); ("lossy", Bool true) ] ) ]
       ~rows:[ d_row; f_row ]
       [ d_converged; f_converged;
         Record.gate "digest payload_msgs" (Int d_payload) Lt (Int f_payload) ])

(* ------------------------------------------------------------------ *)
(* E19: detlint hygiene gate — scan speed and cleanliness              *)
(* ------------------------------------------------------------------ *)

(* The determinism linter of lib/lint (DESIGN.md §12) over the same roots
   CI gates on.  Two properties are enforced, not just printed: the tree
   is clean (zero findings — allowlisted suppressions are fine), and the
   whole scan stays comfortably interactive, under a 5 s budget, so the
   gate never becomes the slow part of the feedback loop.  Emits
   machine-readable BENCH_lint.json. *)
let e19 () =
  section "E19" "detlint static-analysis gate: scan speed and cleanliness";
  let since = Record.since () in
  let roots = [ "lib"; "bin"; "test" ] in
  if not (List.for_all Sys.file_exists roots) then
    row "  skipped: not run from the repository root (lib/ bin/ test/ missing)"
  else begin
    let budget = 5.0 in
    let t0 = Sys.time () in
    let result =
      match Lint.Driver.scan ~strict:false roots with
      | Ok r -> r
      | Error e -> failwith ("E19: detlint scan error: " ^ e)
    in
    let elapsed = Sys.time () -. t0 in
    let findings = List.length result.Lint.Driver.findings in
    let allowed = List.length result.Lint.Driver.allowed in
    row "  %-14s %-10s %-10s %-12s %-8s" "files_scanned" "findings"
      "allowed" "elapsed_s" "budget_s";
    row "  %-14d %-10d %-10d %-12.3f %-8.1f" result.Lint.Driver.files
      findings allowed elapsed budget;
    row "  expected: zero findings and the scan finishes within budget \
         (both enforced)";
    List.iter
      (fun f -> row "  unexpected finding: %s" (Format.asprintf "%a" Lint.Finding.pp_human f))
      result.Lint.Driver.findings;
    Record.write bench_dir
      (Record.make ~name:"lint" ~experiment:"E19" ~since
         ~params:[ ("roots", List (List.map (fun r -> Record.String r) roots)) ]
         ~rows:
           Record.
             [ Obj
                 [ ("files_scanned", Int result.Lint.Driver.files);
                   ("findings", Int findings); ("allowlisted", Int allowed);
                   ("elapsed_seconds", Float elapsed) ] ]
         Record.
           [ gate "findings" (Int findings) Eq (Int 0);
             gate "elapsed_seconds" (Float elapsed) Lt (Float budget) ])
  end

(* ------------------------------------------------------------------ *)
(* E10: substrate micro-benchmarks (Bechamel)                          *)
(* ------------------------------------------------------------------ *)

let bechamel_suite () =
  let open Bechamel in
  let engine_run n =
    Staged.stage (fun () ->
        let setup = { (Harness.Stacks.default ~n ~deadline:100) with
                      omega = oracle 0 } in
        let inputs = Harness.Stacks.spread_posts ~n ~count:5 ~from_time:5 ~every:4 in
        ignore (Harness.Stacks.run_etob ~inputs setup Harness.Stacks.Algorithm_5))
  in
  let linearize =
    let msgs =
      List.init 100 (fun i ->
          App_msg.make ~origin:(i mod 5) ~sn:i
            ~deps:(if i = 0 then [] else [ ((i - 1) mod 5, i - 1) ]) ())
    in
    let g = List.fold_left Causal_graph.add Causal_graph.empty msgs in
    Staged.stage (fun () -> ignore (Causal_graph.linearize g ~prefix:[]))
  in
  let cht_extract =
    let pattern = Failures.none ~n:2 in
    let omega = Detectors.Omega.make pattern ~stabilize_at:0 in
    let sampler p t = Cht.Fd_value.leader (Detectors.Omega.query omega ~self:p ~now:t) in
    let dag = Cht.Dag.build ~pattern ~sampler ~period:4 ~gossip:4 ~rounds:8 in
    Staged.stage (fun () ->
        ignore
          (Cht.Extraction.extract ~algo:Cht.Pure.ec_omega ~dag
             ~budget:Cht.Extraction.default_budget ~self:0 ()))
  in
  Test.make_grouped ~name:"substrate"
    [ Test.make ~name:"etob run n=3 (100 ticks)" (engine_run 3);
      Test.make ~name:"etob run n=7 (100 ticks)" (engine_run 7);
      Test.make ~name:"causal_graph linearize (100 msgs)" linearize;
      Test.make ~name:"cht extract (n=2)" cht_extract ]

(* Besides the table, emits machine-readable BENCH_micro.json: the
   estimates in benchmark-name order (null where Bechamel has none), no
   gate (wall time varies with the machine). *)
let e10 () =
  section "E10" "substrate micro-benchmarks (Bechamel, monotonic clock)";
  let since = Record.since () in
  let open Bechamel in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let limit = 2000 and quota = 0.25 in
  let cfg = Benchmark.cfg ~limit ~quota:(Time.second quota) ~kde:(Some 1000) () in
  let raw = Benchmark.all cfg instances (bechamel_suite ()) in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  let results = Analyze.merge ols instances results in
  let estimates =
    Hashtbl.fold
      (fun _measure tbl acc ->
         Hashtbl.fold (fun name r acc -> (name, Analyze.OLS.estimates r) :: acc) tbl acc)
      results []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  row "  %-40s %-16s" "benchmark" "time per run";
  let rows =
    List.map
      (fun (name, estimates) ->
         let t = match estimates with Some (t :: _) -> t | Some [] | None -> nan in
         row "  %-40s %-16s" name
           (if Float.is_nan t then "n/a"
            else if t > 1e6 then Printf.sprintf "%.2f ms" (t /. 1e6)
            else if t > 1e3 then Printf.sprintf "%.2f us" (t /. 1e3)
            else Printf.sprintf "%.0f ns" t);
         Record.(Obj [ ("benchmark", String name); ("ns_per_run", Float t) ]))
      estimates
  in
  Record.write bench_dir
    (Record.make ~name:"micro" ~experiment:"E10" ~since
       ~params:[ ("limit", Int limit); ("quota_s", Float quota) ]
       ~rows [])

(* ------------------------------------------------------------------ *)
(* E20a: framed binary trace + CRC32 WAL vs jsonl + MD5                *)
(* ------------------------------------------------------------------ *)

(* The trace/WAL fast path (DESIGN.md §14).  Two enforced inequalities,
   measured on the same data old-vs-new:

   - serialization: encoding a realistic event stream as framed binary
     records ([Frame.event_record]) must beat the jsonl renderer
     ([Frame.event_to_jsonl], byte-identical to [Sink.jsonl]) on both
     throughput and output size;
   - WAL: the full append+sync+crash-replay cycle over protocol-sized
     records must be faster under the store's incremental-CRC32 framing
     than under the per-record MD5 scheme it replaced, kept here as the
     baseline.

   Rates are CPU-time measured over an adaptive iteration count (at
   least [quota] seconds each), so the numbers are stable across
   machines; what is enforced is the ratio, not the absolute rate.
   Besides the table, emits machine-readable BENCH_trace.json. *)
let e20a () =
  section "E20a" "framed binary trace + CRC32 WAL vs jsonl + MD5";
  let since = Record.since () in
  let module Frame = Persist.Frame in
  let module Store = Persist.Store in
  let quota = 0.4 in
  let timed f =
    (* one warm-up call, then run for at least [quota] CPU-seconds *)
    f ();
    let t0 = Sys.time () in
    let iters = ref 0 in
    while Sys.time () -. t0 < quota do
      f ();
      incr iters
    done;
    float_of_int !iters /. (Sys.time () -. t0)
  in
  (* (a) trace serialization: the event mix of a real run — mostly
     send/deliver with rendered input/output text sprinkled in. *)
  let n_events = 4096 in
  let events =
    Array.init n_events (fun i ->
        let t = i / 4 and uid = i in
        match i mod 8 with
        | 0 -> Frame.Input { t; proc = i mod 5; v = Printf.sprintf "post \"m%d\"" i }
        | 1 | 2 | 3 -> Frame.Send { t; src = i mod 5; dst = (i + 1) mod 5; uid }
        | 4 | 5 | 6 ->
          Frame.Deliver
            { t = t + 2; src = i mod 5; dst = (i + 1) mod 5; uid; lat = 2 }
        | _ ->
          Frame.Output
            { t; proc = i mod 5; v = Printf.sprintf "deliver p%d \"m%d\"" (i mod 5) i })
  in
  let bin_bytes =
    Array.fold_left (fun a e -> a + String.length (Frame.event_record e))
      (String.length Frame.header) events
  in
  let jsonl_bytes =
    Array.fold_left (fun a e -> a + String.length (Frame.event_to_jsonl e) + 1)
      0 events
  in
  let bin_rate =
    timed (fun () ->
        Array.iter (fun e -> ignore (Frame.event_record e)) events)
  in
  let jsonl_rate =
    timed (fun () ->
        Array.iter (fun e -> ignore (Frame.event_to_jsonl e)) events)
  in
  let file =
    let b = Buffer.create (bin_bytes + 8) in
    Buffer.add_string b Frame.header;
    Array.iter (fun e -> Buffer.add_string b (Frame.event_record e)) events;
    Buffer.contents b
  in
  let decodes = Result.is_ok (Frame.decode file) in
  let decode_rate = timed (fun () -> ignore (Frame.decode file)) in
  let ev_rate r = r *. float_of_int n_events in
  row "  trace serialization over %d events (send/deliver-heavy mix):" n_events;
  row "  %-8s %14s %12s" "format" "encode ev/s" "bytes";
  row "  %-8s %14.0f %12d" "jsonl" (ev_rate jsonl_rate) jsonl_bytes;
  row "  %-8s %14.0f %12d" "binary" (ev_rate bin_rate) bin_bytes;
  row "  binary decode: %.0f ev/s (full file, checksums verified)"
    (ev_rate decode_rate);
  (* (b) WAL cycle: append protocol-shaped records, sync, crash-replay. *)
  let n_records = 64 in
  let payloads =
    Array.init n_records (fun i -> Printf.sprintf "m %d %d payload-%d" (i * 37) i i)
  in
  (* Each cycle returns the number of records its replay recovered. *)
  let crc_wal () =
    let s = Store.create () in
    ignore (Store.open_ s);
    Array.iter (Store.append s) payloads;
    Store.sync s;
    List.length (Store.open_ s).Store.records
  in
  (* The baseline is the scheme the framed WAL replaced: each record kept
     raw beside its MD5, hashed on append and again on replay, which
     stops at the first record that fails verification. *)
  let md5_wal () =
    let log = Array.fold_left (fun log p -> (p, Digest.string p) :: log) [] payloads in
    let rec verified acc = function
      | (p, md5) :: newer when Digest.equal (Digest.string p) md5 ->
        verified (p :: acc) newer
      | _ -> List.rev acc
    in
    List.length (verified [] (List.rev log))
  in
  let rec_rate r = r *. float_of_int n_records in
  let md5_rate = timed (fun () -> ignore (md5_wal ())) in
  let crc_rate = timed (fun () -> ignore (crc_wal ())) in
  row "  WAL append+sync+replay over %d protocol-sized records:" n_records;
  row "  %-8s %14s" "checksum" "records/s";
  row "  %-8s %14.0f" "md5" (rec_rate md5_rate);
  row "  %-8s %14.0f" "crc32" (rec_rate crc_rate);
  let ser_speedup = bin_rate /. jsonl_rate in
  let wal_speedup = crc_rate /. md5_rate in
  row "  expected: binary encoding strictly faster and smaller than jsonl";
  row "  (x%.2f, %d vs %d bytes); CRC32 WAL strictly faster than MD5 (x%.2f)."
    ser_speedup bin_bytes jsonl_bytes wal_speedup;
  row "  All three inequalities are enforced.";
  Record.write bench_dir
    (Record.make ~name:"trace" ~experiment:"E20a" ~since
       ~params:[ ("events", Int n_events); ("wal_records", Int n_records) ]
       ~rows:
         Record.
           [ Obj
               [ ("format", String "jsonl");
                 ("encode_events_per_s", Float (ev_rate jsonl_rate));
                 ("bytes", Int jsonl_bytes) ];
             Obj
               [ ("format", String "binary");
                 ("encode_events_per_s", Float (ev_rate bin_rate));
                 ("decode_events_per_s", Float (ev_rate decode_rate));
                 ("bytes", Int bin_bytes) ];
             Obj
               [ ("checksum", String "md5");
                 ("wal_records_per_s", Float (rec_rate md5_rate)) ];
             Obj
               [ ("checksum", String "crc32");
                 ("wal_records_per_s", Float (rec_rate crc_rate)) ] ]
       Record.
         [ gate "binary trace decodes" (Bool decodes) Eq (Bool true);
           gate "md5 WAL records replayed" (Int (md5_wal ())) Eq (Int n_records);
           gate "crc32 WAL records replayed" (Int (crc_wal ())) Eq (Int n_records);
           gate "binary_bytes" (Int bin_bytes) Lt (Int jsonl_bytes);
           gate "serialization_speedup" (Float ser_speedup) Gt (Float 1.0);
           gate "wal_speedup" (Float wal_speedup) Gt (Float 1.0) ])

(* ------------------------------------------------------------------ *)
(* E21: crash-safe soak campaign — journal overhead + resume speedup   *)
(* ------------------------------------------------------------------ *)

(* The soak runner (DESIGN.md §15) buys crash-safety with a flushed
   journal record per job.  This leg prices that insurance and enforces
   the two claims that make it worth paying:

   - resume equivalence: a campaign interrupted halfway (stop_after, the
     deterministic SIGKILL stand-in) and resumed produces a coverage
     digest byte-identical to the uninterrupted run;
   - resume is replay, not re-execution: resuming an already-complete
     journal must be strictly faster than running the campaign, because
     it only decodes and folds the journal.

   Wall time comes from Harness.Clock (the sanctioned monotonic shim) —
   campaigns fan out over domains, so CPU time would double-count. *)
(* The campaigns' artifact directories are made by [Soak.Runner] and may
   hold quarantined findings. *)
let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let e21 () =
  section "E21" "crash-safe soak campaign: journal overhead + resume speedup";
  let since = Record.since () in
  let module Campaign = Soak.Campaign in
  let module Runner = Soak.Runner in
  let clock = Harness.Clock.monotonic () in
  let wall_ms f =
    let t0 = Harness.Clock.now_ms clock in
    let r = f () in
    (r, max 1 (Harness.Clock.elapsed_ms clock ~since:t0))
  in
  let tmp suffix =
    let f = Filename.temp_file "bench-e21" suffix in
    Sys.remove f;
    f
  in
  let config =
    { Campaign.legs =
        [ { Campaign.name = "alg5";
            target = Harness.Builder.template Harness.Stacks.Algorithm_5 } ];
      budget = 80;
      seed = 1;
      max_adversities = 3;
      event_budget = 200_000;
      deadline_ms = 10_000;
      max_findings = 4;
      max_poisoned = 8;
      artifacts = tmp ".artifacts" }
  in
  let total = Campaign.total_jobs config in
  let journal = tmp ".journal" in
  let full, run_ms =
    wall_ms (fun () ->
        match Runner.start ~domains:2 ~journal config with
        | Ok o -> o
        | Error e -> failwith ("E21: campaign failed: " ^ e))
  in
  let digest = Campaign.coverage_digest full.Runner.state in
  let journal_bytes =
    In_channel.with_open_bin journal (fun ic -> In_channel.length ic)
    |> Int64.to_int
  in
  (* Interrupt at half the jobs, then resume to completion. *)
  let half_journal = tmp ".journal" in
  let config_half = { config with Campaign.artifacts = tmp ".artifacts" } in
  (match Runner.start ~domains:2 ~stop_after:(total / 2) ~journal:half_journal
           config_half with
   | Ok _ -> ()
   | Error e -> failwith ("E21: interrupted campaign failed: " ^ e));
  let resumed, resume_ms =
    wall_ms (fun () ->
        match Runner.resume_with ~domains:2 ~journal:half_journal config_half with
        | Ok o -> o
        | Error e -> failwith ("E21: resume failed: " ^ e))
  in
  let resumed_digest = Campaign.coverage_digest resumed.Runner.state in
  (* Resume of the completed journal: pure replay, no jobs. *)
  let replayed, replay_ms =
    wall_ms (fun () ->
        match Runner.resume_with ~domains:2 ~journal config with
        | Ok o -> o
        | Error e -> failwith ("E21: replay failed: " ^ e))
  in
  let replayed_digest = Campaign.coverage_digest replayed.Runner.state in
  let jobs_per_s = float_of_int total *. 1000. /. float_of_int run_ms in
  let bytes_per_job = float_of_int journal_bytes /. float_of_int total in
  let replay_speedup = float_of_int run_ms /. float_of_int replay_ms in
  row "  campaign: %d jobs in %d ms (%.0f jobs/s, %d clean, %d poisoned)"
    total run_ms jobs_per_s full.Runner.state.Campaign.clean
    full.Runner.state.Campaign.poisoned;
  row "  journal: %d bytes (%.1f bytes/job, flushed per record)"
    journal_bytes bytes_per_job;
  row "  interrupted at %d jobs, resumed in %d ms: digest %s" (total / 2)
    resume_ms
    (if resumed_digest = digest then "identical" else "DIVERGED");
  row "  completed-journal resume (pure replay): %d ms (x%.1f vs run)"
    replay_ms replay_speedup;
  row "  expected: resume digests byte-identical; replay strictly faster";
  row "  than re-running.  Both are enforced.";
  List.iter remove_tree
    [ journal; half_journal; config.Campaign.artifacts; config_half.Campaign.artifacts ];
  Record.write bench_dir
    (Record.make ~name:"soak" ~experiment:"E21" ~since
       ~params:[ ("jobs", Int total) ]
       ~rows:
         Record.
           [ Obj
               [ ("run_ms", Int run_ms); ("jobs_per_s", Float jobs_per_s);
                 ("journal_bytes", Int journal_bytes);
                 ("bytes_per_job", Float bytes_per_job);
                 ("interrupted_resume_ms", Int resume_ms);
                 ("replay_ms", Int replay_ms);
                 ("replay_speedup", Float replay_speedup) ] ]
       Record.
         [ gate "interrupted-and-resumed digest" (String resumed_digest) Eq
             (String digest);
           gate "completed-journal replay digest" (String replayed_digest) Eq
             (String digest);
           gate "replay_ms" (Int replay_ms) Lt (Int run_ms) ])

(* ------------------------------------------------------------------ *)
(* E22: closed-loop service availability under a crash+partition       *)
(* ------------------------------------------------------------------ *)

(* The service layer of DESIGN.md §16: a closed-loop client population
   (retries, backoff, admission control, breaker degradation) driven
   against Algorithm 5 with the committed prefix and against the Paxos
   baseline, under one lossy-partition + majority-crash schedule.  Its
   gates (Service.Experiment) are enforced, not just printed: a strict
   minority-partition availability gap in ETOB's favour, retry
   amplification within budget, zero duplicate applies through the
   replica-side dedup machine, and a byte-identical replay digest.  Emits
   machine-readable BENCH_service.json, the record `ecsim service`
   writes. *)
let e22 () =
  section "E22" "closed-loop service: availability under crash + lossy partition";
  let result = Service.Experiment.run () in
  let spec = Service.Experiment.spec in
  row "  %d replicas, %d clients; lossy partition isolates {3,4}; replica 1"
    result.Service.Experiment.etob.s_outcome.Service.Runner.replicas
    spec.Harness.Service_spec.clients;
  row "  crashes after the heal; spec: %s" (Harness.Service_spec.to_string spec);
  row "  %-6s %-9s %-9s %-12s %-7s %-7s %-7s %-8s" "impl" "requests"
    "avail" "minority" "amp" "sheds" "migr" "p99/p999";
  let side (s : Service.Experiment.side) =
    let o = s.Service.Experiment.s_outcome in
    let r = o.Service.Runner.report in
    let started, ok = s.Service.Experiment.s_minority in
    let p99, p999 =
      match r.Service.Metrics.latency with
      | Some l -> (l.Sink.p99, l.Sink.p999)
      | None -> (-1, -1)
    in
    row "  %-6s %-9d %-9.2f %d/%d (%.2f)  %-7.2f %-7d %-7d %d/%d"
      s.Service.Experiment.s_name r.Service.Metrics.requests
      (Service.Metrics.availability r) ok started
      (Service.Metrics.ratio s.Service.Experiment.s_minority)
      (Service.Metrics.amplification r) r.Service.Metrics.sheds
      r.Service.Metrics.migrations p99 p999
  in
  side result.Service.Experiment.etob;
  side result.Service.Experiment.paxos;
  row "  expected: ETOB serves the minority through speculative degradation;";
  row "  Paxos writes die without a majority.  All four gates are enforced.";
  Record.write bench_dir result.Service.Experiment.record

(* ------------------------------------------------------------------ *)
(* E23: per-event allocation on the engine hot path (budget enforced)  *)
(* ------------------------------------------------------------------ *)

(* alloclint (DESIGN.md §17) proves the engine's hot path free of
   unjustified allocation sites statically; this leg prices what the
   static gate deliberately allows — the protocol/observer callbacks
   behind the justified A2 allows (the RNG's Int64 allows cost nothing:
   the compiler keeps that arithmetic unboxed) — and enforces a hard
   budget in bytes per simulated event.  The two gates
   cover each other: an allocation smuggled past alloclint through a
   newly allowed callback trips the budget here, and a budget-friendly
   but unjustified site trips alloclint.

   The workload is the E15 scenario family (jittered links, oracle
   Omega, tight timers) so the number is comparable across revisions of
   the same benchmark.  Bytes are charged per automaton step (deliver,
   timer or input dispatch, [Trace.steps]), measured as the minor-word
   delta across whole runs after one warm-up run has paid all one-time
   module and node construction.  Emits machine-readable
   BENCH_alloc.json. *)
let e23 () =
  section "E23" "per-event allocation: minor-heap bytes per engine step";
  let since = Record.since () in
  let n = 3 and seeds = [ 2; 3; 4; 5 ] in
  (* Measured exactly (Gc.minor_words): ~50 B/step (Alg. 5), ~25 B/step
     (Paxos).  The budget gives the worst row ~20x headroom; a hot-path
     allocation regression multiplies the rate. *)
  let budget_bytes = 1024.0 in
  let word_bytes = float_of_int (Sys.word_size / 8) in
  let run_once impl seed =
    let setup = { (Harness.Stacks.default ~n ~deadline:600) with
                  seed;
                  delay = Net.uniform ~min:2 ~max:6; omega = oracle 0;
                  timer_period = 1 } in
    let inputs =
      (10, 0, Harness.Stacks.Post "warmup")
      :: List.init 8 (fun i ->
          (60 + (i * 40), (i + 1) mod n,
           Harness.Stacks.Post (Printf.sprintf "probe%d" i)))
    in
    let trace = Harness.Stacks.run_etob ~inputs setup impl in
    Trace.steps trace
  in
  row "  E15 scenario family, %d seeds per implementation, budget %.0f B/step"
    (List.length seeds) budget_bytes;
  row "  %-16s %-10s %-16s %-16s %-12s" "implementation" "steps"
    "minor words" "major words" "bytes/step";
  let measure impl =
    ignore (run_once impl 1);  (* warm-up: one-time init is not charged *)
    (* Exact counters on both sides (Record.since), where quick_stat's
       alone move only at minor collections, too coarse for runs this
       short. *)
    let s0 = Record.since () in
    let steps =
      List.fold_left (fun acc seed -> acc + run_once impl seed) 0 seeds
    in
    let s1 = Record.since () in
    let minor = s1.Gc.minor_words -. s0.Gc.minor_words in
    let major = s1.Gc.major_words -. s0.Gc.major_words in
    let bytes_per_step = minor *. word_bytes /. float_of_int (max 1 steps) in
    row "  %-16s %-10d %-16.0f %-16.0f %-12.1f" (impl_name impl) steps minor
      major bytes_per_step;
    ( Record.(
        Obj
          [ ("impl", String (impl_name impl)); ("steps", Int steps);
            ("gc_minor_words", Float minor); ("gc_major_words", Float major);
            ("bytes_per_step", Float bytes_per_step) ]),
      Record.gate
        (impl_name impl ^ " bytes_per_step")
        (Float bytes_per_step) Le (Float budget_bytes) )
  in
  let results =
    List.map measure
      [ Harness.Stacks.Algorithm_5; Harness.Stacks.Paxos_baseline ]
  in
  row "  expected: every implementation within the %.0f bytes/step budget"
    budget_bytes;
  row "  (enforced; the static half of the gate is `make lint`'s alloclint)";
  Record.write bench_dir
    (Record.make ~name:"alloc" ~experiment:"E23" ~since
       ~params:[ ("seeds", Int (List.length seeds)); ("word_bytes", Float word_bytes) ]
       ~rows:(List.map fst results) (List.map snd results))

(* ------------------------------------------------------------------ *)
(* E25: step cost against history length, per stack (gates enforced)   *)
(* ------------------------------------------------------------------ *)

(* Each stack under a stable leader, the E24 alg5-long spec (n=5,
   uniform 1-4 tick links, timer period 2, one post every 4 ticks) at
   10^2, 10^3 and 10^4 broadcasts: Algorithm 5, the Paxos baseline,
   Algorithm 5 with anti-entropy (alg5+ae) and Algorithm 5 under the
   crash-recovery wrapper with commit indications (recoverable+commits).
   Algorithm 5 merges and promotes only what is new (Causal_graph), and a
   revision of promote_i or d_i shares the one before it (Dseq).  The
   Paxos baseline keeps its chosen ids incrementally and prunes its
   pending requests, votes and delivered slots at choice (DESIGN.md §20),
   and a request, vote or delivery costs O(1): per-origin id bitsets,
   voter lists and int-keyed slot tables (DESIGN.md §25).
   Anti-entropy builds its digests from the graph's per-origin spans and
   answers with the messages above the peer's prefix; the recovery
   wrapper logs the nodes new since its last event, each revision of d_i
   and of the committed prefix as a delta, seals its log at a checkpoint
   instead of re-serializing the state, and its links skip their retry
   walk until a frame is due and dedup below a watermark (DESIGN.md §23).
   So the CPU time and the minor-heap bytes per automaton step should
   not grow with the history.  The run uses the counters sink, so memory
   does not hold the trace.  Gates, per stack: the cost per step at 10^3
   is within [flat_factor] of the cost at 10^2 and at 10^4 within
   [wide_factor], and the bytes per step at 10^3 and 10^4 stay within
   E23's budget.  The factors leave room for the log factor of the
   persistent maps, for cache misses over a heap ten and a hundred times
   larger and for run-to-run noise (on a 2-vCPU host, 1.1-2.1x at 10^3
   and 1.2-2.4x at 10^4 across the four stacks), while work that grows
   with the history fails them: merging whole graphs on every update
   grows 15x over the first decade; copying d_i into an in-order list on
   every change of the leader's promotion cost 8.5-8.9x and 4,866 B/step
   at 10^4; rebuilding Paxos's chosen ids and filtering every request
   ever received on each leader timer cost 3.5x and 5,670 B/step at
   10^3; summarizing and diffing the whole graph at every digest cost
   alg5+ae 5.2x and 20.7 KB/step at 10^3, and logging every revision
   whole with whole-state snapshots cost recoverable+commits 20.9x and
   266 KB/step.

   Digest rows, two per stack at 10^3 broadcasts over a run that records
   its trace: [Trace.digest], which hashes the text block by block as it
   is written (DESIGN.md §21), and a control, MD5 of the whole
   [Trace.text].  Each row gives the digest's CPU time as a ratio to the
   run's, each the best of three, and the bytes one call allocates as a
   ratio to the text's length.  Gates: [Trace.digest]'s time stays within
   [digest_bound] of the run's and its bytes within [alloc_bound] of the
   text's, the control's bytes exceed [alloc_bound], and the two give
   the same digest.  On a 2-vCPU host [Trace.digest] measured 3.8-6.9x
   for Algorithm 5 and 2.2-3.4x for Paxos, the spread mostly the run's
   (17-43 ms); since the Paxos
   learner pays O(1) per vote (DESIGN.md §25) its run takes 11-16 ms
   and its digest 5.3-7.8x.  Since the event queue costs O(1) per event
   (DESIGN.md §26) the runs take 9-16 ms and 7-13 ms, the digests
   107-125 ms and 81-92 ms, and the ratios read 7.6-11.7x and
   7.3-11.8x over six runs.  The digest allocated 2.7
   and 2.4 MB (0.051x and 0.061x of the 52 MB and 39 MB of text); MD5
   over those bytes is nearly all of its time, and what is left of the
   cost is that the text holds every revision whole (ROADMAP item 3).
   The control measured 7.6-13.4x and 5.0-7.5x and allocated 189 and
   175 MB (3.6x and 4.5x): the buffer's growth and the final copy, as
   the digest cost before it streamed.  Laying out every revision whole
   through Format measured 30-45x and 23-27x.

   Checker rows, one per stack at 10^3 broadcasts over the same run and
   trace: [Properties.etob_report]'s CPU time over the run's, best of
   three.  Gate: the ratio stays within [check_bound].  Reading each
   revision of d_i as its delta (DESIGN.md §22) measured 0.24-0.32x for
   Algorithm 5 and 0.14-0.33x for Paxos on a 2-vCPU host; a sweep that
   rebuilds its tables from every revision whole measured 46x and 24x,
   and the checkers that read every revision as a list cost over 800x
   (check_causal_order alone took 21 s).
   Emits machine-readable BENCH_scale.json. *)
let e25 () =
  section "E25"
    "step cost vs history length: Algorithm 5, Paxos, anti-entropy, recovery (gates enforced)";
  let since = Record.since () in
  let n = 5 and flat_factor = 3.0 and wide_factor = 4.0 and budget_bytes = 1024.0 in
  let digest_bound = 15.0 and alloc_bound = 0.1 and check_bound = 2.0 in
  let word_bytes = float_of_int (Sys.word_size / 8) in
  let setup_for ?sink count =
    { (Harness.Stacks.default ~n ~deadline:((4 * count) + 205)) with
      delay = Net.uniform ~min:1 ~max:4; timer_period = 2; omega = oracle 0; sink }
  in
  let inputs count = Harness.Stacks.spread_posts ~n ~count ~from_time:5 ~every:4 in
  let run_etob ?sink impl count =
    Harness.Stacks.run_etob ~inputs:(inputs count) (setup_for ?sink count) impl
  in
  let stack_name impl = Harness.Builder.stack_name (Harness.Builder.Etob impl) in
  (* The stacks whose step cost is measured: name, table label, and one
     run at [count] broadcasts into a sink. *)
  let etob impl =
    (stack_name impl, impl_name impl, fun sink count -> ignore (run_etob ~sink impl count))
  in
  let stacks_measured =
    [ etob Harness.Stacks.Algorithm_5;
      etob Harness.Stacks.Paxos_baseline;
      ( Harness.Builder.stack_name Harness.Builder.Etob_ae,
        "ETOB (Alg. 5)+AE",
        fun sink count ->
          ignore
            (Harness.Stacks.run_etob_ae ~inputs:(inputs count) (setup_for ~sink count)) );
      ( "recoverable+commits",
        "Recoverable+commits",
        fun sink count ->
          ignore
            (Harness.Stacks.run_recoverable ~inputs:(inputs count) ~commits:true
               (setup_for ~sink count)) ) ]
  in
  let run_once run count =
    let c = Sink.counters ~n in
    run (Sink.counters_sink c) count;
    Sink.steps c
  in
  (* Repeat small sizes so every row covers a few hundred thousand steps. *)
  let measure (_, label, run) (count, repeats) =
    ignore (run_once run count);
    (* Gc.minor_words is exact; quick_stat's count moves in whole minor heaps. *)
    let w0 = Gc.minor_words () in
    let t0 = Sys.time () in
    let steps = ref 0 in
    for _ = 1 to repeats do
      steps := !steps + run_once run count
    done;
    let cpu = Sys.time () -. t0 in
    let words = Gc.minor_words () -. w0 in
    let steps = !steps in
    let ns = cpu *. 1e9 /. float_of_int steps in
    let bytes = words *. word_bytes /. float_of_int steps in
    row "  %-20s %-12d %-8d %-12d %-12.0f %-12.0f" label count repeats steps ns bytes;
    (count, repeats, steps, ns, bytes)
  in
  let stack ((name, _, _) as measured) =
    let rows = List.map (measure measured) [ (100, 100); (1_000, 10); (10_000, 1) ] in
    let at count = List.find (fun (c, _, _, _, _) -> c = count) rows in
    let _, _, _, ns_small, _ = at 100 in
    let gates (count, label) factor =
      let _, _, _, ns, bytes = at count in
      let gate_name what = Printf.sprintf "%s %s at %s" name what label in
      Record.
        [ gate (gate_name "ns/step growth over 10^2") (Float (ns /. ns_small)) Le
            (Float factor);
          gate (gate_name "bytes/step") (Float bytes) Le (Float budget_bytes) ]
    in
    ( List.map
        (fun (count, repeats, steps, ns, bytes) ->
           Record.(
             Obj
               [ ("impl", String name); ("broadcasts", Int count);
                 ("runs", Int repeats); ("steps", Int steps);
                 ("ns_per_step", Float ns); ("bytes_per_step", Float bytes) ]))
        rows,
      gates (1_000, "10^3") flat_factor @ gates (10_000, "10^4") wide_factor )
  in
  row "  n=%d, uniform 1-4 tick links, timer period 2, one post per 4 ticks" n;
  row "  %-20s %-12s %-8s %-12s %-12s %-12s" "stack" "broadcasts" "runs"
    "steps" "ns/step" "bytes/step";
  let stacks = List.map stack stacks_measured in
  (* CPU seconds of the fastest of three calls of [f], and its result. *)
  let best_cpu f =
    let cpu () =
      let t0 = Sys.time () in
      let x = f () in
      (Sys.time () -. t0, x)
    in
    let t1, x = cpu () in
    let t2, _ = cpu () in
    let t3, _ = cpu () in
    (Float.min t1 (Float.min t2 t3), x)
  in
  (* The bytes [f ()] allocates on this domain.  [Gc.allocated_bytes]
     reads an eighth of the words the minor heap holds since its last
     collection (OCaml 5.1), so each read follows a minor collection. *)
  let allocated f =
    Gc.minor ();
    let a0 = Gc.allocated_bytes () in
    ignore (Sys.opaque_identity (f ()));
    Gc.minor ();
    Gc.allocated_bytes () -. a0
  in
  let count = 1_000 in
  (* Each stack's run at 10^3 broadcasts, and the two readers of its
     trace: the digest and the ETOB checkers. *)
  let readers impl =
    let run_s, trace = best_cpu (fun () -> run_etob impl count) in
    let digest_s, digest = best_cpu (fun () -> Trace.digest trace) in
    let check_s, _ =
      best_cpu (fun () -> Harness.Stacks.etob_report (setup_for count) trace)
    in
    (impl, run_s, trace, (digest_s, digest), check_s)
  in
  let measured =
    List.map readers [ Harness.Stacks.Algorithm_5; Harness.Stacks.Paxos_baseline ]
  in
  let ratio_gate ~what ~bound impl run_s reader_s =
    let ratio = reader_s /. run_s in
    ( ratio,
      (if ratio <= bound then "pass" else "fail"),
      Record.gate
        (Printf.sprintf "%s %s/run at 10^3" (stack_name impl) what)
        (Float ratio) Le (Float bound) )
  in
  row "  digest at %d broadcasts, best of 3 (gates: digest <= %.0fx the run, allocates \
       <= %.1fx its text; control: MD5 of the whole text allocates more)"
    count digest_bound alloc_bound;
  row "  %-16s %-14s %-10s %-10s %-10s %-8s %-10s %-10s %-8s" "implementation" "digest"
    "text MB" "run ms" "digest ms" "ratio" "alloc MB" "alloc/text" "verdict";
  (* Per stack, [Trace.digest] and the control: MD5 of [Trace.text], the
     whole text built first.  Each allocates what one call does, and the
     two must agree. *)
  let digests =
    List.concat_map
      (fun (impl, run_s, trace, (digest_s, digest), _) ->
         let text_bytes = float_of_int (String.length (Trace.text trace)) in
         let digest_row ~name ~control digest_s f =
           let bytes = allocated f in
           let alloc = bytes /. text_bytes in
           let ratio, _, time_gate =
             ratio_gate ~what:"digest" ~bound:digest_bound impl run_s digest_s
           in
           let alloc_gate what op =
             Record.gate
               (Printf.sprintf "%s %s alloc/text at 10^3" (stack_name impl) what)
               (Float alloc) op (Float alloc_bound)
           in
           let gates =
             if control then [ alloc_gate "whole-text digest" Gt ]
             else [ time_gate; alloc_gate "digest" Le ]
           in
           row "  %-16s %-14s %-10.1f %-10.1f %-10.1f %-8.2f %-10.1f %-10.3f %-8s"
             (impl_name impl) name (text_bytes /. 1e6) (run_s *. 1e3) (digest_s *. 1e3)
             ratio (bytes /. 1e6) alloc
             (if List.for_all (fun g -> g.Record.pass) gates then "pass" else "fail");
           ( Record.(
               Obj
                 [ ("impl", String (stack_name impl)); ("digest", String name);
                   ("broadcasts", Int count); ("text_mb", Float (text_bytes /. 1e6));
                   ("run_ms", Float (run_s *. 1e3)); ("digest_ms", Float (digest_s *. 1e3));
                   ("alloc_mb", Float (bytes /. 1e6));
                   ("alloc_per_text_byte", Float alloc) ]),
             gates )
         in
         let streamed =
           digest_row ~name:"streamed" ~control:false digest_s (fun () ->
               Trace.digest trace)
         in
         let whole () = Digest.to_hex (Digest.string (Trace.text trace)) in
         let whole_s, whole_digest = best_cpu whole in
         let control = digest_row ~name:"whole-text" ~control:true whole_s whole in
         let same =
           Record.gate
             (Printf.sprintf "%s streamed digest = whole-text digest at 10^3"
                (stack_name impl))
             (String digest) Eq (String whole_digest)
         in
         [ streamed; (fst control, snd control @ [ same ]) ])
      measured
  in
  row "  etob_report at %d broadcasts, best of 3 (gate: check <= %.0fx the run)" count
    check_bound;
  row "  %-16s %-12s %-12s %-10s %-8s" "implementation" "run ms" "check ms" "ratio"
    "verdict";
  let checks =
    List.map
      (fun (impl, run_s, _, _, check_s) ->
         let ratio, verdict, gate =
           ratio_gate ~what:"etob_report" ~bound:check_bound impl run_s check_s
         in
         row "  %-16s %-12.1f %-12.1f %-10.2f %-8s" (impl_name impl) (run_s *. 1e3)
           (check_s *. 1e3) ratio verdict;
         ( Record.(
             Obj
               [ ("impl", String (stack_name impl)); ("broadcasts", Int count);
                 ("run_ms", Float (run_s *. 1e3)); ("check_ms", Float (check_s *. 1e3)) ]),
           gate ))
      measured
  in
  Record.write bench_dir
    (Record.make ~name:"scale" ~experiment:"E25" ~since
       ~params:[ ("n", Int n) ]
       ~rows:(List.concat_map fst stacks @ List.map fst digests @ List.map fst checks)
       (List.concat_map snd stacks @ List.concat_map snd digests @ List.map snd checks))

(* ------------------------------------------------------------------ *)

let experiments =
  [ ("E1", e1); ("E2", e2); ("E3", e3); ("E4", e4); ("E5", e5); ("E6", e6);
    ("E7", e7); ("E8", e8); ("E9", e9); ("E11", e11); ("E12", e12);
    ("E13", e13); ("E14", e14); ("E15", e15); ("E16", e16); ("E17", e17);
    ("E18", e18); ("E19", e19); ("E20A", e20a); ("E21", e21); ("E22", e22);
    ("E23", e23); ("E25", e25); ("E10", e10) ]

(* No arguments runs every experiment; otherwise each argument names one
   (case-insensitive), e.g. `dune exec bench/main.exe -- E18 E17`. *)
let () =
  let args = List.tl (Array.to_list Sys.argv) in
  List.iter
    (fun a ->
       if not (List.mem_assoc (String.uppercase_ascii a) experiments) then begin
         Printf.eprintf "unknown experiment %s; known: %s\n" a
           (String.concat " " (List.map fst experiments));
         exit 2
       end)
    args;
  let selected =
    if args = [] then experiments
    else
      List.filter
        (fun (id, _) ->
           List.exists (fun a -> String.uppercase_ascii a = id) args)
        experiments
  in
  print_endline "Reproduction benchmarks: The Weakest Failure Detector for";
  print_endline "Eventual Consistency (Dubois, Guerraoui, Kuznetsov, Petit, Sens,";
  print_endline "PODC 2015). One section per experiment in DESIGN.md.";
  List.iter (fun (_, f) -> f ()) selected;
  print_endline "\nAll experiment tables printed."
