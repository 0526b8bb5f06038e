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

(* Write an experiment's machine-readable record to bench/BENCH_<name>.json
   (./BENCH_<name>.json when run from outside the repository root). *)
let write_bench_json name json =
  let file = "BENCH_" ^ name ^ ".json" in
  let path =
    if Sys.file_exists "bench" && Sys.is_directory "bench"
    then Filename.concat "bench" file
    else file
  in
  Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc json);
  row "  wrote %s" path

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

(* Every bench JSON records how much GC work its run cost (DESIGN.md
   §17), so allocation regressions show up in the committed artifacts —
   not only in E23's enforced budget.  [gc_mark] brackets the start of
   an experiment body; [gc_fields] renders the deltas for its JSON. *)
let gc_baseline = ref (Gc.quick_stat ())
let gc_mark () = gc_baseline := Gc.quick_stat ()

let gc_fields () =
  let s1 = Gc.quick_stat () and s0 = !gc_baseline in
  Printf.sprintf "\"gc_minor_words\": %.0f,\n  \"gc_major_words\": %.0f"
    (s1.Gc.minor_words -. s0.Gc.minor_words)
    (s1.Gc.major_words -. s0.Gc.major_words)

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
  List.iter
    (fun tau_omega ->
       List.iter
         (fun timer_period ->
            List.iter
              (fun delta_c ->
                 let setup = { (Harness.Stacks.default ~n:3
                                  ~deadline:(tau_omega * 3 + 100)) with
                               timer_period;
                               delay = Net.constant delta_c;
                               omega = oracle ~pre:Detectors.Omega.Self_trust
                                   tau_omega } in
                 let inputs =
                   Harness.Stacks.spread_posts ~n:3 ~count:10 ~from_time:4
                     ~every:3
                 in
                 let trace =
                   Harness.Stacks.run_etob ~inputs setup
                     Harness.Stacks.Algorithm_5
                 in
                 let report = Harness.Stacks.etob_report setup trace in
                 let tau = Properties.etob_convergence_time report in
                 let bound = tau_omega + timer_period + delta_c in
                 row "  %-10d %-8d %-8d %-12d %-8d %-8s" tau_omega timer_period
                   delta_c tau bound (bool_mark (tau <= bound)))
              [ 1; 3; 5 ])
         [ 2; 4 ])
    [ 20; 40; 60 ];
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
  List.iter
    (fun n ->
       List.iter
         (fun impl ->
            List.iter
              (fun (dname, delay) ->
                 let setup = { (Harness.Stacks.default ~n ~deadline:400) with
                               delay; omega = oracle 0 } in
                 let inputs =
                   Harness.Stacks.spread_posts ~n ~count:12 ~from_time:5 ~every:4
                 in
                 let trace = Harness.Stacks.run_etob ~inputs setup impl in
                 let report = Harness.Stacks.etob_report setup trace in
                 row "  %-4d %-16s %-14s %-12s %-12s" n (impl_name impl) dname
                   (bool_mark (Properties.is_strong_tob report))
                   (bool_mark (Properties.etob_base_ok report)))
              [ ("uniform 1-6", Net.uniform ~min:1 ~max:6) ])
         [ Harness.Stacks.Algorithm_5; Harness.Stacks.Algorithm_1_over_4;
           Harness.Stacks.Paxos_baseline ])
    [ 3; 5 ];
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
  gc_mark ();
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
      (impl_name impl, m, sd, List.length means)
  in
  let rows =
    List.map sweep_impl
      [ Harness.Stacks.Algorithm_5; Harness.Stacks.Paxos_baseline ]
  in
  row "  expected: ETOB mean below TOB mean; stddev > 0 under jittered links";
  let json =
    Printf.sprintf
      "{\n  \"experiment\": \"E15\",\n  \"seeds\": %d,\n  \"domains\": %d,\n  \
       \"results\": [\n%s\n  ],\n  %s\n}\n"
      seeds domains
      (String.concat ",\n"
         (List.map
            (fun (name, m, sd, runs) ->
               Printf.sprintf
                 "    {\"impl\": \"%s\", \"mean_latency\": %.4f, \
                  \"stddev\": %.4f, \"runs\": %d}"
                 name m sd runs)
            rows))
      (gc_fields ())
  in
  write_bench_json "sweep" json

(* ------------------------------------------------------------------ *)
(* E16: adversarial explorer — detection budget per seeded mutant      *)
(* ------------------------------------------------------------------ *)

(* How many adversity plans does the bounded explorer need before each
   seeded single-decision mutant of Algorithm 5 is caught?  Reported as
   the plan budget consumed at first detection, per mutant and per seed,
   plus the shrunk counterexample size.  The faithful protocol is run
   under the full budget as the control row (it must stay clean). *)
let e16 () =
  section "E16" "adversarial explorer: plans-to-detection per Algorithm 5 mutant";
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
  List.iter
    (fun m ->
       List.iter
         (fun seed ->
            let t = target (Some m) in
            let e = explore t ~seed in
            match e.B.found with
            | None ->
              row "  %-24s %-10d %-14s %-12s" (Etob_omega.mutation_name m)
                seed "NOT FOUND" "-"
            | Some o ->
              let shrunk = B.shrink t o in
              row "  %-24s %-10d %-14d %-12d" (Etob_omega.mutation_name m)
                seed e.B.plans_run
                (Harness.Adversity.size shrunk.B.builder.B.plan))
         seeds)
    Etob_omega.all_mutations;
  let control = explore (target None) ~seed:(List.hd seeds) in
  row "  %-24s %-10d %-14s %-12s" "(faithful control)" (List.hd seeds)
    (match control.B.found with
     | None -> Printf.sprintf "clean/%d" control.B.plans_run
     | Some _ -> "VIOLATION")
    "-";
  row "  expected: every mutant found within budget; faithful row clean"

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
   Besides the table, emits machine-readable BENCH_recovery.json. *)
let e17 () =
  section "E17" "crash-recovery: replay catch-up, disk faults, post-recovery verdicts";
  gc_mark ();
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
    row "  %-16s %-9d %-9d %-9d %-7d %-6d %-8s %-8s %-6d" label recover_at
      catchup
      (Recoverable.replayed_msgs handles.(proc))
      resent st.Persist.Store.records_lost (verdict_mark causal)
      (verdict_mark distinct) tau;
    Printf.sprintf
      "    {\"scenario\": \"%s\", \"recover_at\": %d, \"catchup_ticks\": %d, \
       \"replayed_msgs\": %d, \"retransmitted\": %d, \"restarts\": %d, \
       \"records_lost\": %d, \"corrupt_detected\": %d, \
       \"causal_order_ok\": %b, \"distinct_broadcasts_ok\": %b, \
       \"convergence_tau\": %d}"
      label recover_at catchup
      (Recoverable.replayed_msgs handles.(proc))
      resent st.Persist.Store.restarts st.Persist.Store.records_lost
      st.Persist.Store.corrupt_detected causal.Properties.ok
      distinct.Properties.ok tau
  in
  let json_rows = List.map run_row rows_spec in
  row "  expected: faithful rows all ok with bounded catch-up; the amnesia";
  row "  mutant's distinct column VIOLATED (sequence numbers reused)";
  let json =
    Printf.sprintf
      "{\n  \"experiment\": \"E17\",\n  \"n\": %d,\n  \"deadline\": %d,\n  \
       \"crash_at\": %d,\n  \"results\": [\n%s\n  ],\n  %s\n}\n"
      n deadline at
      (String.concat ",\n" json_rows)
      (gc_fields ())
  in
  write_bench_json "recovery" json

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
  gc_mark ();
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
    ( converged_at, payload,
      Printf.sprintf
        "    {\"mode\": \"%s\", \"converged_at\": %d, \
         \"heal_to_convergence\": %d, \"digests_sent\": %d, \
         \"deltas_sent\": %d, \"floods_sent\": %d, \"payload_msgs\": %d, \
         \"learned\": %d, \"causal_order_ok\": %b}"
        (mode_name mode) converged_at heal2cvg digests deltas floods payload
        learned causal.Properties.ok )
  in
  let d_at, d_payload, d_json = run_mode Anti_entropy.Digest in
  let f_at, f_payload, f_json = run_mode Anti_entropy.Flood in
  row "  expected: both modes converge shortly after the heal; the digest run's";
  row "  repair payload is strictly smaller than the flood run's (enforced)";
  if d_at < 0 || f_at < 0 then
    failwith "E18: a mode failed to converge after the partition healed";
  if d_payload >= f_payload then
    failwith
      (Printf.sprintf "E18: digest payload %d not < flood payload %d"
         d_payload f_payload);
  let json =
    Printf.sprintf
      "{\n  \"experiment\": \"E18\",\n  \"n\": %d,\n  \"deadline\": %d,\n  \
       \"partition\": {\"isolated\": 3, \"from\": %d, \"until\": %d, \
       \"lossy\": true},\n  \"digest_payload_strictly_smaller\": true,\n  \
       \"results\": [\n%s\n  ],\n  %s\n}\n"
      n deadline from_time until_time
      (String.concat ",\n" [ d_json; f_json ])
      (gc_fields ())
  in
  write_bench_json "partition" json

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
  gc_mark ();
  let roots = List.filter Sys.file_exists [ "lib"; "bin"; "test" ] in
  if List.length roots < 3 then
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
    if findings > 0 then
      failwith (Printf.sprintf "E19: detlint found %d findings" findings);
    if elapsed >= budget then
      failwith
        (Printf.sprintf "E19: detlint scan took %.3f s (budget %.1f s)"
           elapsed budget);
    let json =
      Printf.sprintf
        "{\n  \"experiment\": \"E19\",\n  \"roots\": [\"lib\", \"bin\", \
         \"test\"],\n  \"files_scanned\": %d,\n  \"findings\": %d,\n  \
         \"allowlisted\": %d,\n  \"elapsed_seconds\": %.3f,\n  \
         \"budget_seconds\": %.1f,\n  \"clean\": true,\n  \
         \"within_budget\": true,\n  %s\n}\n"
        result.Lint.Driver.files findings allowed elapsed budget (gc_fields ())
    in
    write_bench_json "lint" json
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

let e10 () =
  section "E10" "substrate micro-benchmarks (Bechamel, monotonic clock)";
  let open Bechamel in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:(Some 1000) ()
  in
  let raw = Benchmark.all cfg instances (bechamel_suite ()) in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  let results = Analyze.merge ols instances results in
  row "  %-40s %-16s" "benchmark" "time per run";
  Hashtbl.iter
    (fun _measure tbl ->
       Hashtbl.iter
         (fun name ols_result ->
            match Analyze.OLS.estimates ols_result with
            | Some (t :: _) ->
              let pretty =
                if t > 1e6 then Printf.sprintf "%.2f ms" (t /. 1e6)
                else if t > 1e3 then Printf.sprintf "%.2f us" (t /. 1e3)
                else Printf.sprintf "%.0f ns" t
              in
              row "  %-40s %-16s" name pretty
            | Some [] | None -> row "  %-40s %-16s" name "n/a")
         tbl)
    results

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
     records must be faster under the incremental-CRC32 framing than
     under the legacy per-record MD5.

   Rates are CPU-time measured over an adaptive iteration count (at
   least [quota] seconds each), so the numbers are stable across
   machines; what is enforced is the ratio, not the absolute rate.
   Besides the table, emits machine-readable BENCH_trace.json. *)
let e20a () =
  section "E20a" "framed binary trace + CRC32 WAL vs jsonl + MD5";
  gc_mark ();
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
  let decode_rate =
    timed (fun () ->
        match Frame.decode file with
        | Ok _ -> ()
        | Error _ -> failwith "E20a: self-encoded trace failed to decode")
  in
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
  let wal checksum () =
    let s = Store.create ~checksum () in
    ignore (Store.open_ s);
    Array.iter (Store.append s) payloads;
    Store.sync s;
    let o = Store.open_ s in
    if List.length o.Store.records <> n_records then
      failwith "E20a: WAL replay lost records without a fault"
  in
  let rec_rate r = r *. float_of_int n_records in
  let md5_rate = timed (wal Store.Md5) in
  let crc_rate = timed (wal Store.Crc32) in
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
  if bin_bytes >= jsonl_bytes then
    failwith
      (Printf.sprintf "E20a: binary trace %d bytes not < jsonl %d bytes"
         bin_bytes jsonl_bytes);
  if ser_speedup <= 1.0 then
    failwith
      (Printf.sprintf
         "E20a: binary encode rate not > jsonl encode rate (x%.2f)" ser_speedup);
  if wal_speedup <= 1.0 then
    failwith
      (Printf.sprintf "E20a: CRC32 WAL rate not > MD5 WAL rate (x%.2f)"
         wal_speedup);
  let json =
    Printf.sprintf
      "{\n  \"experiment\": \"E20a\",\n  \"events\": %d,\n  \
       \"jsonl_encode_events_per_s\": %.0f,\n  \
       \"binary_encode_events_per_s\": %.0f,\n  \
       \"binary_decode_events_per_s\": %.0f,\n  \"jsonl_bytes\": %d,\n  \
       \"binary_bytes\": %d,\n  \"serialization_speedup\": %.3f,\n  \
       \"wal_records\": %d,\n  \"md5_wal_records_per_s\": %.0f,\n  \
       \"crc32_wal_records_per_s\": %.0f,\n  \"wal_speedup\": %.3f,\n  \
       \"binary_strictly_smaller\": true,\n  \
       \"binary_strictly_faster\": true,\n  \
       \"crc32_strictly_faster\": true,\n  %s\n}\n"
      n_events (ev_rate jsonl_rate) (ev_rate bin_rate) (ev_rate decode_rate)
      jsonl_bytes bin_bytes ser_speedup n_records (rec_rate md5_rate)
      (rec_rate crc_rate) wal_speedup (gc_fields ())
  in
  write_bench_json "trace" json

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
let e21 () =
  section "E21" "crash-safe soak campaign: journal overhead + resume speedup";
  gc_mark ();
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
  if resumed_digest <> digest then
    failwith "E21: interrupted-and-resumed digest diverged from baseline";
  if replayed_digest <> digest then
    failwith "E21: completed-journal replay digest diverged from baseline";
  if replay_ms >= run_ms then
    failwith
      (Printf.sprintf "E21: replay (%d ms) not faster than re-run (%d ms)"
         replay_ms run_ms);
  let json =
    Printf.sprintf
      "{\n  \"experiment\": \"E21\",\n  \"jobs\": %d,\n  \
       \"run_ms\": %d,\n  \"jobs_per_s\": %.1f,\n  \
       \"journal_bytes\": %d,\n  \"bytes_per_job\": %.1f,\n  \
       \"interrupted_resume_ms\": %d,\n  \"replay_ms\": %d,\n  \
       \"replay_speedup\": %.1f,\n  \
       \"interrupted_digest_identical\": true,\n  \
       \"replay_digest_identical\": true,\n  %s\n}\n"
      total run_ms jobs_per_s journal_bytes bytes_per_job resume_ms replay_ms
      replay_speedup (gc_fields ())
  in
  write_bench_json "soak" json;
  Sys.remove journal;
  Sys.remove half_journal

(* ------------------------------------------------------------------ *)
(* E22: closed-loop service availability under a crash+partition       *)
(* ------------------------------------------------------------------ *)

(* The service layer of DESIGN.md §16: a closed-loop client population
   (retries, backoff, admission control, breaker degradation) driven
   against Algorithm 5 with the committed prefix and against the Paxos
   baseline, under one lossy-partition + majority-crash schedule.  Four
   gates are enforced, not just printed: a strict minority-partition
   availability gap in ETOB's favour, retry amplification within budget,
   zero duplicate applies through the replica-side dedup machine, and a
   byte-identical replay digest.  Emits machine-readable
   BENCH_service.json. *)
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
  List.iter
    (fun (g : Service.Experiment.gate) ->
      row "  gate %-20s %-4s %s" g.g_name
        (if g.g_pass then "ok" else "FAIL")
        g.g_detail)
    result.Service.Experiment.gates;
  row "  expected: ETOB serves the minority through speculative degradation;";
  row "  Paxos writes die without a majority.  All four gates are enforced.";
  write_bench_json "service" (Service.Experiment.to_json result);
  if not result.Service.Experiment.pass then
    failwith "E22: a service-layer gate failed (see the table above)"

(* ------------------------------------------------------------------ *)
(* E23: per-event allocation on the engine hot path (budget enforced)  *)
(* ------------------------------------------------------------------ *)

(* alloclint (DESIGN.md §17) proves the engine's hot path free of
   unjustified allocation sites statically; this leg prices what the
   static gate deliberately allows — the RNG's Int64 boxing and the
   protocol/observer callbacks behind the justified A2 allows — and
   enforces a hard budget in bytes per simulated event.  The two gates
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
  let n = 3 and seeds = [ 2; 3; 4; 5 ] in
  (* Measured exactly (Gc.minor_words): ~93 B/step (Alg. 5), ~40 B/step
     (Paxos).  The budget gives the worst row ~11x headroom; a hot-path
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
    (* Gc.minor_words is exact; quick_stat's minor count only moves in
       whole minor heaps (256k words), too coarse for runs this short. *)
    let w0 = Gc.minor_words () in
    let s0 = Gc.quick_stat () in
    let steps =
      List.fold_left (fun acc seed -> acc + run_once impl seed) 0 seeds
    in
    let s1 = Gc.quick_stat () in
    let minor = Gc.minor_words () -. w0 in
    let major = s1.Gc.major_words -. s0.Gc.major_words in
    let bytes_per_step = minor *. word_bytes /. float_of_int (max 1 steps) in
    row "  %-16s %-10d %-16.0f %-16.0f %-12.1f" (impl_name impl) steps minor
      major bytes_per_step;
    (impl_name impl, steps, minor, major, bytes_per_step)
  in
  let rows =
    List.map measure
      [ Harness.Stacks.Algorithm_5; Harness.Stacks.Paxos_baseline ]
  in
  row "  expected: every implementation within the %.0f bytes/step budget"
    budget_bytes;
  row "  (enforced; the static half of the gate is `make lint`'s alloclint)";
  List.iter
    (fun (name, _, _, _, b) ->
       if b > budget_bytes then
         failwith
           (Printf.sprintf "E23: %s allocates %.1f bytes/step (budget %.0f)"
              name b budget_bytes))
    rows;
  let json =
    Printf.sprintf
      "{\n  \"experiment\": \"E23\",\n  \"seeds\": %d,\n  \
       \"budget_bytes_per_step\": %.0f,\n  \"word_bytes\": %.0f,\n  \
       \"results\": [\n%s\n  ],\n  \"within_budget\": true\n}\n"
      (List.length seeds) budget_bytes word_bytes
      (String.concat ",\n"
         (List.map
            (fun (name, steps, minor, major, b) ->
               Printf.sprintf
                 "    {\"impl\": \"%s\", \"steps\": %d, \
                  \"gc_minor_words\": %.0f, \"gc_major_words\": %.0f, \
                  \"bytes_per_step\": %.1f}"
                 name steps minor major b)
            rows))
  in
  write_bench_json "alloc" json

(* ------------------------------------------------------------------ *)
(* E25: step cost against history length, per stack (gates enforced)   *)
(* ------------------------------------------------------------------ *)

(* Each stack under a stable leader, the E24 alg5-long spec (n=5,
   uniform 1-4 tick links, timer period 2, one post every 4 ticks) at
   10^2, 10^3 and 10^4 broadcasts.  Algorithm 5 merges and promotes only
   what is new (Causal_graph), and a revision of promote_i or d_i shares
   the one before it (Dseq).  The Paxos baseline keeps its chosen ids
   incrementally and prunes its pending requests, votes and delivered
   slots at choice (DESIGN.md §20).  So the CPU time and the minor-heap
   bytes per automaton step should not grow with the history.  The run
   uses the counters sink, so memory does not hold the trace.  Gates, per
   stack: the cost per step at 10^3 is within [flat_factor] of the cost
   at 10^2 and at 10^4 within [wide_factor], and the bytes per step at
   10^3 and 10^4 stay within E23's budget.  The factors leave room for
   the log factor of the persistent maps, for cache misses over a heap
   ten and a hundred times larger and for run-to-run noise (on a 2-vCPU
   host, 1.6-2.1x at 10^3 and 2.0-2.4x at 10^4 for Algorithm 5, 1.4-1.8x
   and 1.7-2.2x for Paxos), while work that grows with the history fails
   them: merging whole graphs on every update grows 15x over the first
   decade; copying d_i into an in-order list on every change of the
   leader's promotion cost 8.5-8.9x and 4,866 B/step at 10^4; rebuilding
   Paxos's chosen ids and filtering every request ever received on each
   leader timer cost 3.5x and 5,670 B/step at 10^3.  Emits
   machine-readable BENCH_scale.json. *)
let e25 () =
  section "E25" "step cost vs history length, Algorithm 5 and Paxos (gates enforced)";
  gc_mark ();
  let n = 5 and flat_factor = 3.0 and wide_factor = 4.0 and budget_bytes = 1024.0 in
  let word_bytes = float_of_int (Sys.word_size / 8) in
  let run_once impl count =
    let c = Sink.counters ~n in
    let setup =
      { (Harness.Stacks.default ~n ~deadline:((4 * count) + 205)) with
        delay = Net.uniform ~min:1 ~max:4; timer_period = 2; omega = oracle 0;
        sink = Some (Sink.counters_sink c) }
    in
    let inputs = Harness.Stacks.spread_posts ~n ~count ~from_time:5 ~every:4 in
    ignore (Harness.Stacks.run_etob ~inputs setup impl);
    Sink.steps c
  in
  (* Repeat small sizes so every row covers a few hundred thousand steps. *)
  let measure impl (count, repeats) =
    ignore (run_once impl count);
    (* Gc.minor_words is exact; quick_stat's count moves in whole minor heaps. *)
    let w0 = Gc.minor_words () in
    let t0 = Sys.time () in
    let steps = ref 0 in
    for _ = 1 to repeats do
      steps := !steps + run_once impl count
    done;
    let cpu = Sys.time () -. t0 in
    let words = Gc.minor_words () -. w0 in
    let steps = !steps in
    let ns = cpu *. 1e9 /. float_of_int steps in
    let bytes = words *. word_bytes /. float_of_int steps in
    row "  %-16s %-12d %-8d %-12d %-12.0f %-12.0f" (impl_name impl) count repeats
      steps ns bytes;
    (count, repeats, steps, ns, bytes)
  in
  let gate impl label factor growth bytes =
    if growth > factor then
      failwith
        (Printf.sprintf
           "E25: %s step cost grows %.2fx from 10^2 to %s broadcasts (gate %.1fx)"
           (impl_name impl) growth label factor);
    if bytes > budget_bytes then
      failwith
        (Printf.sprintf "E25: %s at %.0f bytes/step at %s broadcasts (budget %.0f)"
           (impl_name impl) bytes label budget_bytes)
  in
  let stack impl =
    let rows = List.map (measure impl) [ (100, 100); (1_000, 10); (10_000, 1) ] in
    let at count = List.find (fun (c, _, _, _, _) -> c = count) rows in
    let _, _, _, ns_small, _ = at 100 and _, _, _, ns_mid, bytes_mid = at 1_000 in
    let _, _, _, ns_large, bytes_large = at 10_000 in
    let growth = ns_mid /. ns_small and wide_growth = ns_large /. ns_small in
    row "  %s: ns/step at 10^3 / 10^2: %.2f (gate <= %.1f); at 10^4 / 10^2: %.2f \
         (gate <= %.1f)"
      (impl_name impl) growth flat_factor wide_growth wide_factor;
    row "  %s: bytes/step at 10^3: %.0f, at 10^4: %.0f (gate <= %.0f, E23's budget)"
      (impl_name impl) bytes_mid bytes_large budget_bytes;
    gate impl "10^3" flat_factor growth bytes_mid;
    gate impl "10^4" wide_factor wide_growth bytes_large;
    Printf.sprintf
      "    {\"impl\": \"%s\",\n     \"rows\": [\n%s\n     ],\n     \
       \"growth_1e3_over_1e2\": %.3f, \"growth_1e4_over_1e2\": %.3f}"
      (Harness.Builder.stack_name (Harness.Builder.Etob impl))
      (String.concat ",\n"
         (List.map
            (fun (count, repeats, steps, ns, bytes) ->
               Printf.sprintf
                 "       {\"broadcasts\": %d, \"runs\": %d, \"steps\": %d, \
                  \"ns_per_step\": %.0f, \"bytes_per_step\": %.0f}"
                 count repeats steps ns bytes)
            rows))
      growth wide_growth
  in
  row "  n=%d, uniform 1-4 tick links, timer period 2, one post per 4 ticks" n;
  row "  %-16s %-12s %-8s %-12s %-12s %-12s" "implementation" "broadcasts" "runs"
    "steps" "ns/step" "bytes/step";
  let stacks =
    List.map stack [ Harness.Stacks.Algorithm_5; Harness.Stacks.Paxos_baseline ]
  in
  let json =
    Printf.sprintf
      "{\n  \"experiment\": \"E25\",\n  \"n\": %d,\n  \"flat_factor\": %.1f,\n  \
       \"wide_factor\": %.1f,\n  \"budget_bytes_per_step\": %.0f,\n  \
       \"stacks\": [\n%s\n  ],\n  %s\n}\n"
      n flat_factor wide_factor budget_bytes (String.concat ",\n" stacks) (gc_fields ())
  in
  write_bench_json "scale" json

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
