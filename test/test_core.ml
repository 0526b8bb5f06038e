(* Tests for the core library: Algorithms 1, 2, 4, 5, 6, 7, the causal
   graph, values, and the property checkers themselves. *)

open Simulator
open Ec_core

let msg ?(tag = "") ?(deps = []) origin sn = App_msg.make ~origin ~sn ~tag ~deps ()

(* ------------------------------------------------------------------ *)
(* Harness: run Algorithm 5 under a configurable scenario.             *)
(* ------------------------------------------------------------------ *)

let run_etob_omega ?(n = 3) ?(seed = 1) ?(deadline = 200) ?(timer_period = 2)
    ?(delay = Net.constant 1) ?pattern ?(omega_stabilize = 0)
    ?(omega_pre = Detectors.Omega.Self_trust) ~broadcasts () =
  let pattern = match pattern with Some p -> p | None -> Failures.none ~n in
  let omega = Detectors.Omega.make ~pre:omega_pre pattern ~stabilize_at:omega_stabilize in
  let config = { (Engine.default_config ~n ~deadline) with
                 pattern; seed; timer_period; delay } in
  let make_node ctx =
    let t, node = Etob_omega.create ctx ~omega:(Detectors.Omega.module_of omega ctx) in
    (node, Etob_omega.service t)
  in
  let inputs =
    List.map (fun (t, p, m) -> (t, p, Etob_intf.Broadcast_etob m)) broadcasts
  in
  let trace, _services = Engine.run_with config ~make_node ~inputs in
  (pattern, trace)

let check_verdict name (v : Properties.verdict) =
  Alcotest.(check bool) (name ^ ": " ^ String.concat "; " v.Properties.violations)
    true v.Properties.ok

(* ------------------------------------------------------------------ *)
(* App_msg                                                             *)
(* ------------------------------------------------------------------ *)

let test_app_msg_identity () =
  let a = msg 0 1 and b = msg 0 1 ~tag:"different-content" in
  Alcotest.(check bool) "same id => equal" true (App_msg.equal a b);
  Alcotest.(check bool) "different sn" false (App_msg.equal a (msg 0 2))

let test_app_msg_prefix () =
  let a = msg 0 0 and b = msg 1 0 and c = msg 2 0 in
  Alcotest.(check bool) "empty prefix" true (App_msg.is_prefix [] [ a; b ]);
  Alcotest.(check bool) "proper prefix" true (App_msg.is_prefix [ a ] [ a; b; c ]);
  Alcotest.(check bool) "equal" true (App_msg.is_prefix [ a; b ] [ a; b ]);
  Alcotest.(check bool) "not prefix" false (App_msg.is_prefix [ b ] [ a; b ]);
  Alcotest.(check bool) "longer" false (App_msg.is_prefix [ a; b ] [ a ])

(* ------------------------------------------------------------------ *)
(* Value                                                               *)
(* ------------------------------------------------------------------ *)

let test_value_tag_roundtrip () =
  List.iter
    (fun v ->
       match Value.of_tag (Value.to_tag v) with
       | Some v' -> Alcotest.(check bool) "roundtrip" true (Value.equal v v')
       | None -> Alcotest.fail "roundtrip failed")
    [ Value.Flag true; Value.Flag false; Value.Num 0; Value.Num (-42); Value.Num 17 ]

let test_value_tag_rejects_seq () =
  Alcotest.check_raises "Seq rejected"
    (Invalid_argument "Value.to_tag: only scalar values embed in tags")
    (fun () -> ignore (Value.to_tag (Value.Seq [])))

let test_value_compare_total () =
  let vs = [ Value.Flag false; Value.Flag true; Value.Num 3; Value.Seq [ msg 0 0 ];
             Value.Vec [ Value.Num 1 ] ] in
  List.iter
    (fun a ->
       List.iter
         (fun b ->
            let ab = Value.compare a b and ba = Value.compare b a in
            Alcotest.(check int) "antisymmetric" ab (-ba);
            Alcotest.(check bool) "consistent with equal" (ab = 0) (Value.equal a b))
         vs)
    vs

(* ------------------------------------------------------------------ *)
(* Causal graph                                                        *)
(* ------------------------------------------------------------------ *)

let test_cg_linearize_respects_deps () =
  let m1 = msg 0 0 in
  let m2 = msg 1 0 ~deps:[ App_msg.id m1 ] in
  let m3 = msg 2 0 ~deps:[ App_msg.id m2 ] in
  let g = List.fold_left Causal_graph.add Causal_graph.empty [ m3; m1; m2 ] in
  let seq = Causal_graph.linearize g ~prefix:[] in
  Alcotest.(check bool) "valid" true (Causal_graph.is_valid_linearization g ~prefix:[] seq);
  Alcotest.(check (list string)) "causal order"
    [ "p0#0"; "p1#0"; "p2#0" ]
    (List.map (fun m -> Format.asprintf "%a" App_msg.pp_id (App_msg.id m)) seq)

let test_cg_prefix_kept () =
  let m1 = msg 0 0 and m2 = msg 1 0 in
  let m3 = msg 2 0 in
  let g = List.fold_left Causal_graph.add Causal_graph.empty [ m1; m2; m3 ] in
  (* A prefix that is NOT in tie-break order must be preserved verbatim. *)
  let prefix = [ m2; m1 ] in
  let seq = Causal_graph.linearize g ~prefix in
  Alcotest.(check bool) "prefix kept" true (App_msg.is_prefix prefix seq);
  Alcotest.(check int) "all messages" 3 (List.length seq)

let test_cg_union_commutative_content () =
  let m1 = msg 0 0 in
  let m2 = msg 1 0 ~deps:[ App_msg.id m1 ] in
  let g1 = Causal_graph.add Causal_graph.empty m1 in
  let g2 = Causal_graph.add Causal_graph.empty m2 in
  let u1 = Causal_graph.union g1 g2 and u2 = Causal_graph.union g2 g1 in
  Alcotest.(check int) "same size" (Causal_graph.size u1) (Causal_graph.size u2);
  Alcotest.(check bool) "same linearization" true
    (List.for_all2 App_msg.equal
       (Causal_graph.linearize u1 ~prefix:[])
       (Causal_graph.linearize u2 ~prefix:[]))

let test_cg_idempotent_add () =
  let m = msg 0 0 in
  let g = Causal_graph.add (Causal_graph.add Causal_graph.empty m) m in
  Alcotest.(check int) "one node" 1 (Causal_graph.size g)

(* qcheck: any random DAG linearizes validly, with any tie-break. *)
let arbitrary_graph =
  QCheck.make
    ~print:(fun msgs -> Format.asprintf "%a" App_msg.pp_seq msgs)
    QCheck.Gen.(
      let* count = int_range 1 12 in
      let rec build acc i =
        if i >= count then return (List.rev acc)
        else
          let* origin = int_range 0 2 in
          let* dep_mask = int_range 0 (max 1 (List.length acc)) in
          let deps =
            List.filteri (fun j _ -> j < dep_mask) acc |> List.map App_msg.id
          in
          build (App_msg.make ~origin ~sn:i ~deps () :: acc) (i + 1)
      in
      build [] 0)

let prop_linearize_valid =
  QCheck.Test.make ~name:"causal_graph: linearize is a valid topological extension"
    ~count:200 arbitrary_graph (fun msgs ->
        let g = List.fold_left Causal_graph.add Causal_graph.empty msgs in
        let seq = Causal_graph.linearize g ~prefix:[] in
        Causal_graph.is_valid_linearization g ~prefix:[] seq)

let prop_linearize_tie_break_independent =
  QCheck.Test.make
    ~name:"causal_graph: any tie-break yields a valid linearization"
    ~count:200 arbitrary_graph (fun msgs ->
        let g = List.fold_left Causal_graph.add Causal_graph.empty msgs in
        let reversed a b = App_msg.compare b a in
        let seq = Causal_graph.linearize ~tie_break:reversed g ~prefix:[] in
        Causal_graph.is_valid_linearization g ~prefix:[] seq)

let prop_linearize_monotone =
  QCheck.Test.make
    ~name:"causal_graph: relinearizing with a prior result as prefix extends it"
    ~count:200 arbitrary_graph (fun msgs ->
        match msgs with
        | [] -> true
        | _ ->
          let half = List.filteri (fun i _ -> i < List.length msgs / 2) msgs in
          let g_half = List.fold_left Causal_graph.add Causal_graph.empty half in
          let prefix = Causal_graph.linearize g_half ~prefix:[] in
          let g = List.fold_left Causal_graph.add Causal_graph.empty msgs in
          let seq = Causal_graph.linearize g ~prefix in
          App_msg.is_prefix prefix seq
          && Causal_graph.is_valid_linearization g ~prefix seq)

(* Differential: the incremental graph against the whole-history oracle
   (Causal_graph_oracle) on random causal histories, received in random
   order as single messages and as whole graphs, so that nodes arrive
   before their dependencies and per-origin runs have gaps. *)
module Oracle = Causal_graph_oracle

(* Messages with per-origin sequence numbers 0, 1, 2, ... and up to two
   dependencies on earlier messages, as genuine runs produce. *)
let history_gen =
  QCheck.Gen.(
    let* count = int_range 1 24 in
    let sns = Array.make 4 0 in
    let rec build acc i =
      if i >= count then return (Array.of_list (List.rev acc))
      else
        let* origin = int_range 0 3 in
        let* picks = list_size (int_range 0 2) (int_range 0 (max 0 (i - 1))) in
        let deps = if i = 0 then [] else List.map (fun j -> App_msg.id (List.nth (List.rev acc) j)) picks in
        let sn = sns.(origin) in
        sns.(origin) <- sn + 1;
        build (App_msg.make ~origin ~sn ~deps () :: acc) (i + 1)
    in
    build [] 0)

(* How a graph grows: [`Add i] adds message i, [`Union is] merges a graph
   built from the messages [is] in that order. *)
let ops_gen count =
  QCheck.Gen.(
    list_size (int_range 1 12)
      (frequency
         [ (3, map (fun i -> `Add i) (int_range 0 (count - 1)));
           (1, map (fun is -> `Union is) (list_size (int_range 0 count) (int_range 0 (count - 1))))
         ]))

let history_arb =
  QCheck.make
    ~print:(fun (msgs, ops, tie) ->
        Format.asprintf "%a ops=%s tie=%d" App_msg.pp_seq (Array.to_list msgs)
          (String.concat " "
             (List.map
                (function
                  | `Add i -> string_of_int i
                  | `Union is -> "U[" ^ String.concat "," (List.map string_of_int is) ^ "]")
                ops))
          tie)
    QCheck.Gen.(
      let* msgs = history_gen in
      let* ops = ops_gen (Array.length msgs) in
      let* tie = int_range 0 2 in
      return (msgs, ops, tie))

let apply_op msgs (g, og) = function
  | `Add i -> (Causal_graph.add g msgs.(i), Oracle.add og msgs.(i))
  | `Union is ->
    let part = List.map (fun i -> msgs.(i)) is in
    ( Causal_graph.union g (List.fold_left Causal_graph.add Causal_graph.empty part),
      Oracle.union og (List.fold_left Oracle.add Oracle.empty part) )

(* The default tie-break, its reverse, and one with ties (by origin only),
   where the id decides. *)
let tie_of = function
  | 0 -> Causal_graph.default_tie_break
  | 1 -> fun a b -> App_msg.compare b a
  | _ -> fun a b -> Int.compare a.App_msg.origin b.App_msg.origin

let ids = List.map App_msg.id
let same_ids a b = List.equal (fun x y -> App_msg.compare_id x y = 0) (ids a) (ids b)

let prop_cg_matches_oracle =
  QCheck.Test.make ~name:"causal_graph: union, ready and linearize match the oracle"
    ~count:500 history_arb (fun (msgs, ops, tie) ->
        let tie_break = tie_of tie in
        let half = List.filteri (fun i _ -> 2 * i < List.length ops) ops in
        let _, og_half = List.fold_left (apply_op msgs) (Causal_graph.empty, Oracle.empty) half in
        let prefix = Oracle.linearize ~tie_break (Oracle.ready og_half) ~prefix:[] in
        let g, og = List.fold_left (apply_op msgs) (Causal_graph.empty, Oracle.empty) ops in
        let sorted_edges es = List.sort compare es in
        same_ids (Causal_graph.messages g) (Oracle.messages og)
        && Causal_graph.size g = Oracle.size og
        && same_ids (Causal_graph.messages (Causal_graph.ready g))
             (Oracle.messages (Oracle.ready og))
        && Causal_graph.ready_count g = Oracle.size (Oracle.ready og)
        && sorted_edges (Causal_graph.edges g) = sorted_edges (Oracle.edges og)
        && same_ids
             (Causal_graph.linearize ~tie_break (Causal_graph.ready g) ~prefix)
             (Oracle.linearize ~tie_break (Oracle.ready og) ~prefix)
        && same_ids
             (Causal_graph.linearize ~tie_break g ~prefix:[])
             (Oracle.linearize ~tie_break og ~prefix:[]))

(* UpdatePromote as Algorithm 5 runs it: start from a restored state (a
   graph and a durable d_i that may hold messages not yet ready), then
   after every step append [promote_fresh] and compare with re-linearizing
   the oracle's ready graph from the previous promotion. *)
let prop_promote_fresh_matches_oracle =
  QCheck.Test.make
    ~name:"causal_graph: incremental UpdatePromote matches re-linearizing"
    ~count:500 history_arb (fun (msgs, ops, tie) ->
        let tie_break = tie_of tie in
        let k = Array.length msgs / 3 in
        let restored = List.init k (fun i -> msgs.(2 * i)) in
        let delivered = List.init (k / 2) (fun i -> msgs.(i)) in
        let g0 = List.fold_left Causal_graph.add Causal_graph.empty restored in
        let og0 = List.fold_left Oracle.add Oracle.empty restored in
        let ready0 = Causal_graph.ready g0 in
        let prefix0 = Causal_graph.linearize ~tie_break ready0 ~prefix:delivered in
        let early =
          App_msg.ids_of_seq
            (List.filter (fun m -> not (Causal_graph.mem ready0 (App_msg.id m))) prefix0)
        in
        let placed id = App_msg.Id_set.mem id early in
        same_ids prefix0 (Oracle.linearize ~tie_break (Oracle.ready og0) ~prefix:delivered)
        && fst
             (List.fold_left
                (fun (ok, (g, og, prefix, since)) op ->
                   let g, og = apply_op msgs (g, og) op in
                   let prefix' =
                     prefix @ Causal_graph.promote_fresh ~tie_break g ~since ~placed
                   in
                   ( ok
                     && same_ids prefix'
                          (Oracle.linearize ~tie_break (Oracle.ready og) ~prefix),
                     (g, og, prefix', Causal_graph.ready_count g) ))
                (true, (g0, og0, prefix0, Causal_graph.ready_count g0))
                ops))

(* ------------------------------------------------------------------ *)
(* Algorithm 5 end-to-end                                              *)
(* ------------------------------------------------------------------ *)

let test_etob_omega_failure_free () =
  let broadcasts =
    [ (5, 0, msg 0 0 ~tag:"a"); (7, 1, msg 1 0 ~tag:"b"); (9, 2, msg 2 0 ~tag:"c") ]
  in
  let pattern, trace = run_etob_omega ~n:3 ~broadcasts () in
  let run = Properties.etob_run_of_trace pattern trace in
  let report = Properties.etob_report run in
  check_verdict "validity" report.Properties.validity;
  check_verdict "no-creation" report.Properties.no_creation;
  check_verdict "no-duplication" report.Properties.no_duplication;
  check_verdict "agreement" report.Properties.agreement;
  check_verdict "causal-order" report.Properties.causal_order;
  Alcotest.(check int) "final length" 3 (List.length (Properties.final_d run 0))

(* ------------------------------------------------------------------ *)
(* Algorithm 2's wire encoding                                         *)
(* ------------------------------------------------------------------ *)

let test_etob_to_ec_tag_roundtrip () =
  List.iter
    (fun (instance, v) ->
       let tag = Etob_to_ec.tag_of ~instance v in
       match Etob_to_ec.parse_tag tag with
       | Some (l, v') ->
         Alcotest.(check int) "instance" instance l;
         Alcotest.(check bool) "value" true (Value.equal v v')
       | None -> Alcotest.failf "failed to parse %s" tag)
    [ (1, Value.Flag true); (7, Value.Flag false); (42, Value.Num (-3));
      (1000, Value.Num 0) ]

let test_etob_to_ec_tag_rejects_garbage () =
  List.iter
    (fun tag ->
       Alcotest.(check bool) tag true (Etob_to_ec.parse_tag tag = None))
    [ ""; "ec2"; "ec2:x:f:true"; "other:1:n:3"; "ec2:1:bogus" ]

(* ------------------------------------------------------------------ *)
(* Hand-wired stack suites (through Harness.Stacks)                    *)
(* ------------------------------------------------------------------ *)

let oracle ?(pre = Detectors.Omega.Self_trust) stabilize_at =
  Harness.Stacks.Oracle { stabilize_at; pre }

let num_values self ~instance = Value.Num ((self * 100) + instance)
let flag_values self ~instance = Value.Flag ((self + instance) mod 2 = 0)

(* --- Algorithm 4 (EC from Omega) ---------------------------------- *)

let test_ec_omega_stable_leader () =
  let setup = { (Harness.Stacks.default ~n:3 ~deadline:150) with
                omega = oracle 0 } in
  let trace = Harness.Stacks.run_ec_omega setup ~propose_value:num_values
      ~max_instance:8 in
  let run = Properties.ec_run_of_trace setup.Harness.Stacks.pattern trace in
  let report = Properties.ec_report run ~instances:8 in
  check_verdict "integrity" report.Properties.integrity;
  check_verdict "validity" report.Properties.ec_validity;
  check_verdict "termination" report.Properties.termination;
  Alcotest.(check int) "agreement from the first instance" 1
    report.Properties.agreement_index

let test_ec_omega_late_stabilization () =
  (* The drivers run through roughly one instance per tick, so the instance
     count must comfortably outlast tau_Omega for post-stabilization
     instances to exist. *)
  let setup = { (Harness.Stacks.default ~n:3 ~deadline:400) with
                omega = oracle ~pre:Detectors.Omega.Self_trust 40 } in
  let trace = Harness.Stacks.run_ec_omega setup ~propose_value:num_values
      ~max_instance:60 in
  let run = Properties.ec_run_of_trace setup.Harness.Stacks.pattern trace in
  let report = Properties.ec_report run ~instances:60 in
  Alcotest.(check bool) "all clauses with eventual agreement" true
    (Properties.ec_ok ~agreement_by:60 report);
  (* Self-trust really disagreed before stabilization. *)
  Alcotest.(check bool) "disagreement before tau_Omega" true
    (report.Properties.agreement_index > 1)

let test_ec_omega_no_majority () =
  (* The paper's headline: Algorithm 4 needs NO correct majority. *)
  let pattern = Failures.of_crashes ~n:5 [ (2, 40); (3, 40); (4, 40) ] in
  let setup = { (Harness.Stacks.default ~n:5 ~deadline:400) with
                pattern; omega = oracle 0 } in
  let trace = Harness.Stacks.run_ec_omega setup ~propose_value:num_values
      ~max_instance:10 in
  let run = Properties.ec_run_of_trace pattern trace in
  let report = Properties.ec_report run ~instances:10 in
  Alcotest.(check bool)
    "EC holds with a minority of correct processes" true
    (Properties.ec_ok ~agreement_by:10 report)

let test_ec_omega_rotating_prefix () =
  let setup = { (Harness.Stacks.default ~n:3 ~deadline:300) with
                omega = oracle ~pre:(Detectors.Omega.Rotating 6) 50 } in
  let trace = Harness.Stacks.run_ec_omega setup ~propose_value:flag_values
      ~max_instance:10 in
  let run = Properties.ec_run_of_trace setup.Harness.Stacks.pattern trace in
  let report = Properties.ec_report run ~instances:10 in
  Alcotest.(check bool) "EC under rotating prefix" true
    (Properties.ec_ok ~agreement_by:10 report)

let test_minimum_system_size () =
  (* The paper's model starts at n = 2: both algorithms must work there,
     including with one of the two processes crashing (no majority left). *)
  let pattern = Failures.of_crashes ~n:2 [ (1, 40) ] in
  let setup = { (Harness.Stacks.default ~n:2 ~deadline:300) with
                pattern; omega = oracle 0 } in
  let trace = Harness.Stacks.run_ec_omega setup ~propose_value:num_values
      ~max_instance:8 in
  let run = Properties.ec_run_of_trace pattern trace in
  Alcotest.(check bool) "EC at n=2 with a crash" true
    (Properties.ec_ok ~agreement_by:8 (Properties.ec_report run ~instances:8));
  let setup = { (Harness.Stacks.default ~n:2 ~deadline:300) with
                pattern; omega = oracle 0 } in
  let inputs =
    [ (10, 0, Harness.Stacks.Post "both-alive");
      (100, 0, Harness.Stacks.Post "solo") ]
  in
  let trace = Harness.Stacks.run_etob ~inputs setup Harness.Stacks.Algorithm_5 in
  let run = Properties.etob_run_of_trace pattern trace in
  Alcotest.(check bool) "ETOB at n=2 with a crash" true
    (Properties.etob_base_ok (Properties.etob_report run));
  Alcotest.(check int) "survivor delivered both" 2
    (List.length (Properties.final_d run 0))

let prop_ec_omega_any_environment =
  QCheck.Test.make ~name:"algorithm 4: EC in any environment (random runs)"
    ~count:25 QCheck.small_int
    (fun seed ->
       let rng = Rng.create seed in
       let n = 2 + Rng.int rng 4 in
       (* ANY environment: up to n-1 crashes, all before time 50. *)
       let pattern = Failures.random ~rng ~n ~max_faulty:(n - 1) ~horizon:50 in
       let setup = { (Harness.Stacks.default ~n ~deadline:600) with
                     pattern; seed;
                     delay = Net.uniform ~min:1 ~max:3;
                     omega = oracle ~pre:(Detectors.Omega.Seeded seed) 60 } in
       let trace = Harness.Stacks.run_ec_omega setup ~propose_value:num_values
           ~max_instance:50 in
       let run = Properties.ec_run_of_trace pattern trace in
       Properties.ec_ok ~agreement_by:50 (Properties.ec_report run ~instances:50))

(* --- Algorithm 5 (ETOB from Omega) --------------------------------- *)

let test_etob_omega_strong_tob_with_stable_omega () =
  (* Claim (P2) of Section 5: with Omega stable from the start, Algorithm 5
     implements full (strong) total order broadcast. *)
  let setup = { (Harness.Stacks.default ~n:4 ~deadline:200) with
                omega = oracle 0; delay = Net.uniform ~min:1 ~max:4 } in
  let inputs = Harness.Stacks.spread_posts ~n:4 ~count:10 ~from_time:5 ~every:3 in
  let trace = Harness.Stacks.run_etob ~inputs setup Harness.Stacks.Algorithm_5 in
  let report = Harness.Stacks.etob_report setup trace in
  Alcotest.(check bool)
    (Format.asprintf "strong TOB: %a" Properties.pp_etob_report report)
    true (Properties.is_strong_tob report);
  check_verdict "causal order" report.Properties.causal_order

let partition_setup ~n ~heal =
  let blocks = [ [ 0; 1; 2 ]; [ 3; 4 ] ] in
  let spec = { Net.blocks; from_time = 5; until_time = heal } in
  { (Harness.Stacks.default ~n ~deadline:(heal * 3)) with
    delay = Net.partitioned spec ~base:(Net.constant 1);
    omega = oracle ~pre:(Detectors.Omega.Blockwise blocks) heal }

let test_etob_omega_partition_convergence () =
  (* Both sides of a partition keep making progress under their own leader;
     after healing (tau_Omega = heal) everything converges.  Causal order
     must hold throughout, including DURING the partition (claim P3). *)
  let heal = 60 in
  let setup = partition_setup ~n:5 ~heal in
  let inputs = Harness.Stacks.spread_posts ~n:5 ~count:15 ~from_time:8 ~every:3 in
  let trace = Harness.Stacks.run_etob ~inputs setup Harness.Stacks.Algorithm_5 in
  let run = Properties.etob_run_of_trace setup.Harness.Stacks.pattern trace in
  let report = Properties.etob_report run in
  Alcotest.(check bool) "base properties" true (Properties.etob_base_ok report);
  check_verdict "causal order during partition" report.Properties.causal_order;
  check_verdict "dependencies present" (Properties.check_deps_present run);
  (* Lemma 3's bound: convergence by tau_Omega + Delta_t + Delta_c. *)
  let bound = heal + setup.Harness.Stacks.timer_period + 1 + 2 in
  let tau = Properties.etob_convergence_time report in
  Alcotest.(check bool)
    (Printf.sprintf "tau=%d <= bound=%d" tau bound) true (tau <= bound);
  (* The scenario must genuinely diverge during the partition, otherwise it
     shows nothing. *)
  Alcotest.(check bool) "divergence happened" true (tau > 0)

let test_etob_omega_no_majority () =
  (* Availability without a correct majority: 3 of 5 processes crash, and
     the survivors keep broadcasting and stably delivering. *)
  let pattern = Failures.of_crashes ~n:5 [ (2, 20); (3, 20); (4, 20) ] in
  let setup = { (Harness.Stacks.default ~n:5 ~deadline:200) with
                pattern; omega = oracle 0 } in
  let inputs =
    [ (10, 0, Harness.Stacks.Post "before");
      (40, 1, Harness.Stacks.Post "after-crashes");
      (60, 0, Harness.Stacks.Post "late") ]
  in
  let trace = Harness.Stacks.run_etob ~inputs setup Harness.Stacks.Algorithm_5 in
  let run = Properties.etob_run_of_trace pattern trace in
  let report = Properties.etob_report run in
  Alcotest.(check bool) "base properties" true (Properties.etob_base_ok report);
  Alcotest.(check int) "all three messages stably delivered" 3
    (List.length (Properties.final_d run 0))

let test_etob_omega_two_step_latency () =
  (* Claim (P1): two communication steps per delivery under a stable
     leader.  Delta = 3 ticks; from the broadcast, the update reaches the
     leader in Delta and the promote reaches everyone in another Delta (plus
     at most one timer period of batching at the leader). *)
  let delta = 3 in
  let setup = { (Harness.Stacks.default ~n:3 ~deadline:120) with
                delay = Net.constant delta; omega = oracle 0; timer_period = 1 } in
  let post_at = 50 in
  let inputs = [ (post_at, 1, Harness.Stacks.Post "probe") ] in
  let trace = Harness.Stacks.run_etob ~inputs setup Harness.Stacks.Algorithm_5 in
  let run = Properties.etob_run_of_trace setup.Harness.Stacks.pattern trace in
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
     | None -> Alcotest.fail "probe not stably delivered"
     | Some t ->
       let latency = t - post_at in
       (* Two communication steps, plus at most one timer period of
          batching at the leader. *)
       Alcotest.(check bool)
         (Printf.sprintf "latency %d within [2D, 2D + timer]" latency)
         true
         (latency >= 2 * delta
          && latency <= (2 * delta) + setup.Harness.Stacks.timer_period + 1))

let test_etob_omega_with_elected_omega () =
  (* The full system: Algorithm 5 over the heartbeat-based Omega emulation
     rather than the oracle. *)
  let setup = { (Harness.Stacks.default ~n:3 ~deadline:250) with
                omega = Harness.Stacks.Elected { initial_timeout = 6 } } in
  let inputs = Harness.Stacks.spread_posts ~n:3 ~count:6 ~from_time:30 ~every:5 in
  let trace = Harness.Stacks.run_etob ~inputs setup Harness.Stacks.Algorithm_5 in
  let report = Harness.Stacks.etob_report setup trace in
  Alcotest.(check bool) "base properties over elected omega" true
    (Properties.etob_base_ok report);
  check_verdict "causal order" report.Properties.causal_order

let prop_etob_omega_random_runs =
  QCheck.Test.make ~name:"algorithm 5: ETOB in any environment (random runs)"
    ~count:25 QCheck.small_int
    (fun seed ->
       let rng = Rng.create seed in
       let n = 3 + Rng.int rng 3 in
       let pattern = Failures.random ~rng ~n ~max_faulty:(n - 1) ~horizon:40 in
       let stabilize = 50 + Rng.int rng 30 in
       let setup = { (Harness.Stacks.default ~n ~deadline:400) with
                     pattern; seed;
                     delay = Net.uniform ~min:1 ~max:4;
                     omega = oracle ~pre:(Detectors.Omega.Seeded seed) stabilize } in
       let inputs = Harness.Stacks.spread_posts ~n ~count:8 ~from_time:5 ~every:4 in
       let trace = Harness.Stacks.run_etob ~inputs setup Harness.Stacks.Algorithm_5 in
       let run = Properties.etob_run_of_trace pattern trace in
       let report = Properties.etob_report run in
       Properties.etob_base_ok report
       && report.Properties.causal_order.Properties.ok
       && Properties.etob_convergence_time report <= stabilize + 2 + 4 + 2)

(* The incremental Algorithm 5 against the whole-history one
   (Etob_omega_oracle): under random adversity plans — crashes, buffering
   partitions, delay spikes, drops, duplication, Omega flapping — and each
   seeded mutant, the two traces must be identical, event for event. *)
let alg5_trace ~oracle ?mutation setup inputs =
  let omega_of = Harness.Stacks.omega_module setup in
  let make_node ctx =
    let omega, omega_node = omega_of ctx in
    let service, node =
      if oracle then Etob_omega_oracle.create ?mutation ctx ~omega
      else
        let t, node = Etob_omega.create ?mutation ctx ~omega in
        (Etob_omega.service t, node)
    in
    (Engine.stack [ omega_node; node; Harness.Stacks.post_driver service ], ())
  in
  let trace, _ = Engine.run_with (Harness.Stacks.engine_config setup) ~make_node ~inputs in
  Format.asprintf "%a" Trace.pp trace

let prop_alg5_matches_oracle =
  let deadline = 300 in
  QCheck.Test.make
    ~name:"algorithm 5: incremental and whole-history runs are trace-identical"
    ~count:60
    (QCheck.make
       ~print:(fun (seed, n, plan, mutation) ->
           Format.asprintf "seed=%d n=%d mutation=%s plan=%a" seed n
             (match mutation with None -> "-" | Some m -> Etob_omega.mutation_name m)
             Harness.Adversity.pp plan)
       QCheck.Gen.(
         let* seed = int_range 0 10_000 in
         let* n = int_range 3 5 in
         let* plan = Harness.Builder.plan_gen ~n ~deadline in
         let* mutation = oneofl (None :: List.map Option.some Etob_omega.all_mutations) in
         return (seed, n, plan, mutation)))
    (fun (seed, n, plan, mutation) ->
       let setup =
         Harness.Adversity.apply plan
           { (Harness.Stacks.default ~n ~deadline) with
             seed;
             delay = Net.uniform ~min:1 ~max:4;
             omega = oracle ~pre:(Detectors.Omega.Seeded seed) 40 }
       in
       let inputs = Harness.Stacks.spread_posts ~n ~count:12 ~from_time:5 ~every:3 in
       String.equal
         (alg5_trace ~oracle:false ?mutation setup inputs)
         (alg5_trace ~oracle:true ?mutation setup inputs))

(* --- Service-level details ------------------------------------------ *)

let test_fresh_msg_causal_deps () =
  (* fresh_msg must declare genuine happens-before predecessors: the last
     own broadcast and the last delivered message. *)
  let setup = { (Harness.Stacks.default ~n:3 ~deadline:120) with
                omega = oracle 0 } in
  let omega_of = Harness.Stacks.omega_module setup in
  let make_node ctx =
    let omega, omega_node = omega_of ctx in
    let t, node = Etob_omega.create ctx ~omega in
    let service = Etob_omega.service t in
    (Engine.stack [ omega_node; node; Harness.Stacks.post_driver service ],
     service)
  in
  let inputs =
    [ (5, 0, Harness.Stacks.Post "first");
      (40, 0, Harness.Stacks.Post "second");
      (60, 1, Harness.Stacks.Post "reply") ]
  in
  let trace, _ = Engine.run_with (Harness.Stacks.engine_config setup)
      ~make_node ~inputs in
  let broadcasts =
    List.filter_map
      (fun (_, _, o) ->
         match o with Etob_intf.Etob_broadcast m -> Some m | _ -> None)
      (Trace.outputs trace)
  in
  match List.sort App_msg.compare broadcasts with
  | [ first; second; reply ] ->
    Alcotest.(check (list (pair int int))) "first has no deps" [] first.App_msg.deps;
    (* p0's second message depends on its first (same-sender order) and on
       the last message it had delivered (its own first, here). *)
    Alcotest.(check bool) "second depends on first" true
      (List.mem (App_msg.id first) second.App_msg.deps);
    (* p1's reply depends on what it last delivered: p0's second. *)
    Alcotest.(check bool) "reply depends on second" true
      (List.mem (App_msg.id second) reply.App_msg.deps)
  | _ -> Alcotest.fail "expected three broadcasts"

let test_eic_input_driven () =
  (* The EIC abstraction driven through engine inputs rather than the
     harness driver: one instance proposed externally at each process. *)
  let setup = { (Harness.Stacks.default ~n:3 ~deadline:200) with
                omega = oracle 0 } in
  let omega_of = Harness.Stacks.omega_module setup in
  let make_node ctx =
    let omega, omega_node = omega_of ctx in
    let ec, ec_node = Ec_omega.create ~layer:"ec-inner" ctx ~omega in
    let eic, eic_node = Ec_to_eic.create ctx ~ec:(Ec_omega.service ec) in
    ignore (Ec_to_eic.service eic);
    (Engine.stack [ omega_node; ec_node; eic_node ], ())
  in
  let inputs =
    List.map
      (fun p -> (5 + p, p, Eic_intf.Propose_eic { instance = 1;
                                                  value = Value.Num (p * 7) }))
      [ 0; 1; 2 ]
  in
  let trace, _ = Engine.run_with (Harness.Stacks.engine_config setup)
      ~make_node ~inputs in
  let run = Properties.eic_run_of_trace setup.Harness.Stacks.pattern trace in
  check_verdict "termination" (Properties.check_eic_termination run ~instances:1);
  check_verdict "validity" (Properties.check_eic_validity run);
  check_verdict "agreement" (Properties.check_eic_agreement run)

(* --- The binary-to-multivalued lift ([23] in the paper) ------------- *)

let test_binary_lift_stable_leader () =
  let setup = { (Harness.Stacks.default ~n:3 ~deadline:400) with
                omega = oracle 0 } in
  let trace = Harness.Stacks.run_ec_lifted setup ~propose_value:num_values
      ~max_instance:6 in
  let run = Properties.ec_run_of_trace setup.Harness.Stacks.pattern trace in
  let report = Properties.ec_report run ~instances:6 in
  check_verdict "integrity" report.Properties.integrity;
  check_verdict "validity" report.Properties.ec_validity;
  check_verdict "termination" report.Properties.termination;
  Alcotest.(check int) "agreement from instance 1" 1 report.Properties.agreement_index;
  (* The decided values are genuinely multivalued (Num, not Flag). *)
  let distinct =
    List.sort_uniq compare (Properties.decided_instances run)
  in
  Alcotest.(check int) "six instances decided" 6 (List.length distinct)

let test_binary_lift_late_stabilization () =
  let setup = { (Harness.Stacks.default ~n:3 ~deadline:800) with
                omega = oracle ~pre:Detectors.Omega.Self_trust 40 } in
  let trace = Harness.Stacks.run_ec_lifted setup ~propose_value:num_values
      ~max_instance:20 in
  let run = Properties.ec_run_of_trace setup.Harness.Stacks.pattern trace in
  let report = Properties.ec_report run ~instances:20 in
  Alcotest.(check bool)
    (Format.asprintf "lift with eventual agreement: %a" Properties.pp_ec_report report)
    true (Properties.ec_ok ~agreement_by:20 report)

let test_binary_lift_with_crash () =
  let pattern = Failures.of_crashes ~n:3 [ (2, 30) ] in
  let setup = { (Harness.Stacks.default ~n:3 ~deadline:800) with
                pattern; omega = oracle 0 } in
  let trace = Harness.Stacks.run_ec_lifted setup ~propose_value:num_values
      ~max_instance:8 in
  let run = Properties.ec_run_of_trace pattern trace in
  let report = Properties.ec_report run ~instances:8 in
  Alcotest.(check bool)
    (Format.asprintf "lift under crash: %a" Properties.pp_ec_report report)
    true (Properties.ec_ok ~agreement_by:8 report)

(* --- Theorem 1: the transformations ------------------------------- *)

let test_alg1_over_alg4_is_etob () =
  let setup = { (Harness.Stacks.default ~n:3 ~deadline:400) with
                omega = oracle 30 } in
  let inputs = Harness.Stacks.spread_posts ~n:3 ~count:9 ~from_time:5 ~every:4 in
  let trace =
    Harness.Stacks.run_etob ~inputs setup Harness.Stacks.Algorithm_1_over_4
  in
  let run = Properties.etob_run_of_trace setup.Harness.Stacks.pattern trace in
  let report = Properties.etob_report run in
  Alcotest.(check bool)
    (Format.asprintf "T_EC->ETOB: %a" Properties.pp_etob_report report)
    true (Properties.etob_base_ok report);
  Alcotest.(check bool) "eventual stability" true
    (Properties.etob_convergence_time report <= 60)

let test_alg2_over_alg5_is_ec () =
  let setup = { (Harness.Stacks.default ~n:3 ~deadline:500) with
                omega = oracle 30 } in
  let trace =
    Harness.Stacks.run_ec_via_etob setup Harness.Stacks.Algorithm_5
      ~propose_value:flag_values ~max_instance:8
  in
  let run = Properties.ec_run_of_trace setup.Harness.Stacks.pattern trace in
  let report = Properties.ec_report run ~instances:8 in
  Alcotest.(check bool)
    (Format.asprintf "T_ETOB->EC: %a" Properties.pp_ec_report report)
    true (Properties.ec_ok ~agreement_by:8 report)

let test_alg2_over_paxos_is_consensus () =
  (* Over the strong baseline, the transformation yields agreement from the
     very first instance: it is (non-eventual) repeated consensus. *)
  let setup = { (Harness.Stacks.default ~n:3 ~deadline:600) with
                omega = oracle 0; timer_period = 3 } in
  let trace =
    Harness.Stacks.run_ec_via_etob setup Harness.Stacks.Paxos_baseline
      ~propose_value:flag_values ~max_instance:5
  in
  let run = Properties.ec_run_of_trace setup.Harness.Stacks.pattern trace in
  let report = Properties.ec_report run ~instances:5 in
  Alcotest.(check bool) "all clauses" true (Properties.ec_ok report);
  Alcotest.(check int) "agreement from instance 1" 1 report.Properties.agreement_index

(* --- Appendix A: EIC ----------------------------------------------- *)

let test_alg6_gives_eic () =
  let setup = { (Harness.Stacks.default ~n:3 ~deadline:400) with
                omega = oracle ~pre:Detectors.Omega.Self_trust 40 } in
  let trace = Harness.Stacks.run_eic_over_ec setup ~propose_value:flag_values
      ~max_instance:50 in
  let run = Properties.eic_run_of_trace setup.Harness.Stacks.pattern trace in
  check_verdict "eic termination" (Properties.check_eic_termination run ~instances:50);
  check_verdict "eic validity" (Properties.check_eic_validity run);
  check_verdict "eic agreement" (Properties.check_eic_agreement run);
  Alcotest.(check bool) "finitely many revocations" true
    (Properties.eic_revocation_count run < 1000);
  Alcotest.(check bool) "integrity index finite" true
    (Properties.eic_integrity_index run <= 51)

let test_alg6_revokes_under_disagreement () =
  (* With a long self-trust prefix, early EIC instances genuinely get
     revoked; the point of Appendix A is that this is allowed. *)
  let setup = { (Harness.Stacks.default ~n:3 ~deadline:500) with
                omega = oracle ~pre:Detectors.Omega.Self_trust 30 } in
  let trace = Harness.Stacks.run_eic_over_ec setup ~propose_value:num_values
      ~max_instance:60 in
  let run = Properties.eic_run_of_trace setup.Harness.Stacks.pattern trace in
  Alcotest.(check bool) "revocations occurred" true
    (Properties.eic_revocation_count run > 0);
  check_verdict "eic agreement still holds" (Properties.check_eic_agreement run)

let test_alg7_over_alg6_is_ec () =
  let setup = { (Harness.Stacks.default ~n:3 ~deadline:500) with
                omega = oracle 40 } in
  let trace = Harness.Stacks.run_ec_via_eic setup ~propose_value:flag_values
      ~max_instance:60 in
  let run = Properties.ec_run_of_trace setup.Harness.Stacks.pattern trace in
  let report = Properties.ec_report run ~instances:60 in
  Alcotest.(check bool)
    (Format.asprintf "T_EIC->EC: %a" Properties.pp_ec_report report)
    true (Properties.ec_ok ~agreement_by:60 report)

(* --- The leaderless negative baseline ------------------------------ *)

(* Pairs of concurrent posts from different senders, racing the tie-break
   against arrival order: insertions keep happening for as long as the
   workload runs. *)
let concurrent_pairs ~until ~every =
  List.concat
    (List.init (until / every) (fun i ->
         let t = 10 + (i * every) in
         [ (t, 0, Harness.Stacks.Post (Printf.sprintf "a%d" i));
           (t, 2, Harness.Stacks.Post (Printf.sprintf "b%d" i)) ]))

let test_gossip_baseline_converges_but_never_stabilizes () =
  let workload_end = 200 in
  let inputs = concurrent_pairs ~until:workload_end ~every:10 in
  let delay = Net.uniform ~min:1 ~max:4 in
  (* The gossip baseline: correct base properties, convergence after
     quiescence, but stability violations track the workload, not any
     environment constant. *)
  let setup = { (Harness.Stacks.default ~n:3 ~deadline:300) with
                delay; omega = oracle 0 } in
  let gossip_trace = Harness.Stacks.run_gossip_order ~inputs setup in
  let gossip_run = Properties.etob_run_of_trace setup.Harness.Stacks.pattern gossip_trace in
  let gossip_report = Properties.etob_report gossip_run in
  Alcotest.(check bool) "gossip base properties" true
    (Properties.etob_base_ok gossip_report);
  check_verdict "gossip causal order" gossip_report.Properties.causal_order;
  Alcotest.(check bool)
    (Printf.sprintf "gossip stability tracks the workload (tau=%d)"
       gossip_report.Properties.tau_stability)
    true
    (gossip_report.Properties.tau_stability > workload_end / 2);
  (* Algorithm 5 on the same workload: tau bounded by the environment. *)
  let setup = { (Harness.Stacks.default ~n:3 ~deadline:300) with
                delay; omega = oracle 0 } in
  let etob_trace = Harness.Stacks.run_etob ~inputs setup Harness.Stacks.Algorithm_5 in
  let etob_report = Harness.Stacks.etob_report setup etob_trace in
  Alcotest.(check bool) "algorithm 5 is strong TOB on the same workload" true
    (Properties.is_strong_tob etob_report)

(* --- Committed-prefix indications (Section 7 extension) ------------ *)

let test_commit_prefix_stable_period () =
  (* Under a stable leader with a correct majority, every broadcast is
     eventually committed, and commitments are never rolled back. *)
  let setup = { (Harness.Stacks.default ~n:5 ~deadline:200) with
                omega = oracle 0 } in
  let inputs = Harness.Stacks.spread_posts ~n:5 ~count:10 ~from_time:8 ~every:4 in
  let trace = Harness.Stacks.run_etob_with_commits ~inputs setup in
  let pattern = setup.Harness.Stacks.pattern in
  let commits = Properties.commit_run_of_trace pattern trace in
  let etob = Properties.etob_run_of_trace pattern trace in
  check_verdict "commit stability" (Properties.check_commit_stability commits);
  check_verdict "commit consistency" (Properties.check_commit_consistent commits etob);
  List.iter
    (fun p ->
       Alcotest.(check int) "everything committed" 10
         (Properties.committed_count commits p))
    (Failures.correct pattern)

let test_commit_prefix_latency_after_delivery () =
  (* A commitment needs one more round trip than stable delivery: the
     acknowledgments and the mark. *)
  let setup = { (Harness.Stacks.default ~n:3 ~deadline:200) with
                delay = Net.constant 2; omega = oracle 0; timer_period = 1 } in
  let inputs = [ (50, 1, Harness.Stacks.Post "probe") ] in
  let trace = Harness.Stacks.run_etob_with_commits ~inputs setup in
  let pattern = setup.Harness.Stacks.pattern in
  let commits = Properties.commit_run_of_trace pattern trace in
  let etob = Properties.etob_run_of_trace pattern trace in
  let m =
    List.find_map
      (fun (_, _, o) ->
         match o with
         | Etob_intf.Etob_broadcast m when m.App_msg.tag = "probe" -> Some m
         | _ -> None)
      (Trace.outputs trace)
    |> Option.get
  in
  match Properties.stable_delivery_time etob m, Properties.commit_time commits m with
  | Some deliver, Some commit ->
    Alcotest.(check bool)
      (Printf.sprintf "commit (%d) after delivery (%d)" commit deliver)
      true (commit >= deliver);
    Alcotest.(check bool) "within two extra round trips" true
      (commit - deliver <= 4 * 2 + 2 * setup.Harness.Stacks.timer_period)
  | None, _ -> Alcotest.fail "probe never stably delivered"
  | _, None -> Alcotest.fail "probe never committed"

let test_commit_prefix_abstains_without_majority () =
  (* With only a minority alive, deliveries continue (eventual consistency)
     but nothing new commits: exactly the paper's stable-period caveat. *)
  let pattern = Failures.of_crashes ~n:5 [ (2, 30); (3, 30); (4, 30) ] in
  let setup = { (Harness.Stacks.default ~n:5 ~deadline:300) with
                pattern; omega = oracle 0 } in
  let inputs =
    [ (10, 0, Harness.Stacks.Post "early");
      (60, 0, Harness.Stacks.Post "uncommittable-1");
      (90, 1, Harness.Stacks.Post "uncommittable-2") ]
  in
  let trace = Harness.Stacks.run_etob_with_commits ~inputs setup in
  let commits = Properties.commit_run_of_trace pattern trace in
  let etob = Properties.etob_run_of_trace pattern trace in
  check_verdict "commit stability" (Properties.check_commit_stability commits);
  check_verdict "commit consistency" (Properties.check_commit_consistent commits etob);
  (* All three delivered... *)
  Alcotest.(check int) "delivered" 3 (List.length (Properties.final_d etob 0));
  (* ...but the post-crash broadcasts are not committed. *)
  let committed = Properties.final_committed commits 0 in
  Alcotest.(check bool) "post-crash messages uncommitted" true
    (not (List.exists (fun m -> m.App_msg.tag = "uncommittable-2") committed))

let test_commit_prefix_partition_commits_majority_side_only () =
  let heal = 60 in
  let setup = partition_setup ~n:5 ~heal in
  let inputs =
    [ (10, 0, Harness.Stacks.Post "maj");
      (12, 3, Harness.Stacks.Post "min") ]
  in
  let trace = Harness.Stacks.run_etob_with_commits ~inputs setup in
  let pattern = setup.Harness.Stacks.pattern in
  let commits = Properties.commit_run_of_trace pattern trace in
  let etob = Properties.etob_run_of_trace pattern trace in
  check_verdict "commit stability" (Properties.check_commit_stability commits);
  check_verdict "commit consistency" (Properties.check_commit_consistent commits etob);
  let maj_msg, min_msg =
    let find tag =
      List.find_map
        (fun (_, _, o) ->
           match o with
           | Etob_intf.Etob_broadcast m when m.App_msg.tag = tag -> Some m
           | _ -> None)
        (Trace.outputs trace)
      |> Option.get
    in
    (find "maj", find "min")
  in
  (* The majority side's message commits during the partition; the minority
     side's only after healing. *)
  (match Properties.commit_time commits maj_msg with
   | Some t -> Alcotest.(check bool) "maj commits after heal is also fine" true (t > 0)
   | None -> Alcotest.fail "majority message never committed");
  (match Properties.commit_time commits min_msg with
   | Some t ->
     Alcotest.(check bool)
       (Printf.sprintf "minority message commits only after heal (%d)" t) true
       (t >= heal)
   | None -> Alcotest.fail "minority message never committed")

(* With a stable-from-the-start leader (the oracle accounts for crashes:
   its constant output is the smallest process that never crashes), the
   commit indication must be safe under arbitrary crash patterns. *)
let prop_commit_safety_random_crashes =
  QCheck.Test.make ~name:"commit prefix: never rolled back under random crashes"
    ~count:25 QCheck.small_int
    (fun seed ->
       let rng = Rng.create seed in
       let n = 3 + Rng.int rng 3 in
       let pattern = Failures.random ~rng ~n ~max_faulty:(n - 1) ~horizon:80 in
       let setup = { (Harness.Stacks.default ~n ~deadline:300) with
                     pattern; seed;
                     delay = Net.uniform ~min:1 ~max:3;
                     omega = oracle 0 } in
       let inputs = Harness.Stacks.spread_posts ~n ~count:8 ~from_time:5 ~every:6 in
       let trace = Harness.Stacks.run_etob_with_commits ~inputs setup in
       let commits = Properties.commit_run_of_trace pattern trace in
       let etob = Properties.etob_run_of_trace pattern trace in
       (Properties.check_commit_stability commits).Properties.ok
       && (Properties.check_commit_consistent commits etob).Properties.ok)

(* The full realistic stack — elected omega, jittered delays, mid-run
   crashes — keeps every always-clause of ETOB and converges by the end. *)
let prop_full_stack_chaos =
  QCheck.Test.make ~name:"algorithm 5 + elected omega: chaos runs"
    ~count:15 QCheck.small_int
    (fun seed ->
       let rng = Rng.create seed in
       let n = 3 + Rng.int rng 3 in
       let pattern = Failures.random ~rng ~n ~max_faulty:(n - 1) ~horizon:100 in
       let setup = { (Harness.Stacks.default ~n ~deadline:600) with
                     pattern; seed;
                     delay = Net.uniform ~min:1 ~max:4;
                     omega = Harness.Stacks.Elected { initial_timeout = 8 } } in
       let inputs = Harness.Stacks.spread_posts ~n ~count:8 ~from_time:5 ~every:8 in
       let trace = Harness.Stacks.run_etob ~inputs setup Harness.Stacks.Algorithm_5 in
       let run = Properties.etob_run_of_trace pattern trace in
       let report = Properties.etob_report run in
       Properties.etob_base_ok report
       && report.Properties.causal_order.Properties.ok
       (* Converged well before the horizon: the election stabilizes after
          the last crash (by 100) plus its adaptive timeouts. *)
       && Properties.etob_convergence_time report <= 450)

(* --- Property-checker self-tests ----------------------------------- *)

(* Build a synthetic trace of ETOB outputs and check the checkers see what
   they should. *)
let synthetic_trace entries broadcasts ~n =
  let trace = Trace.create ~n in
  List.iter
    (fun (t, p, m) -> Trace.record_output trace ~time:t ~proc:p (Etob_intf.Etob_broadcast m))
    broadcasts;
  List.iter
    (fun (t, p, seq) -> Trace.record_output trace ~time:t ~proc:p (Etob_intf.Etob_deliver seq))
    entries;
  trace

let test_checker_flags_duplication () =
  let m = msg 0 0 in
  let trace = synthetic_trace [ (5, 0, [ m; m ]) ] [ (1, 0, m) ] ~n:2 in
  let run = Properties.etob_run_of_trace (Failures.none ~n:2) trace in
  Alcotest.(check bool) "flagged" false (Properties.check_no_duplication run).Properties.ok

let test_checker_flags_creation () =
  let m = msg 0 0 in
  let trace = synthetic_trace [ (5, 0, [ m ]) ] [] ~n:2 in
  let run = Properties.etob_run_of_trace (Failures.none ~n:2) trace in
  Alcotest.(check bool) "flagged" false (Properties.check_no_creation run).Properties.ok

let test_checker_flags_causal_violation () =
  let m1 = msg 0 0 in
  let m2 = msg 1 0 ~deps:[ App_msg.id m1 ] in
  let trace =
    synthetic_trace [ (5, 0, [ m2; m1 ]) ] [ (1, 0, m1); (2, 1, m2) ] ~n:2
  in
  let run = Properties.etob_run_of_trace (Failures.none ~n:2) trace in
  Alcotest.(check bool) "flagged" false (Properties.check_causal_order run).Properties.ok

let test_checker_measures_stability_tau () =
  let a = msg 0 0 and b = msg 1 0 in
  (* p0 delivers [a], revises to [b] at t=10 (breaking the prefix), then
     extends: tau must be 10. *)
  let trace =
    synthetic_trace
      [ (5, 0, [ a ]); (10, 0, [ b ]); (15, 0, [ b; a ]) ]
      [ (1, 0, a); (1, 1, b) ] ~n:2
  in
  let run = Properties.etob_run_of_trace (Failures.none ~n:2) trace in
  Alcotest.(check int) "tau = 10" 10 (Properties.stability_time run)

let test_checker_measures_total_order_tau () =
  let a = msg 0 0 and b = msg 1 0 in
  (* At t=10 the two processes order {a,b} oppositely; at t=20 they agree. *)
  let trace =
    synthetic_trace
      [ (10, 0, [ a; b ]); (10, 1, [ b; a ]); (20, 1, [ a; b ]) ]
      [ (1, 0, a); (1, 1, b) ] ~n:2
  in
  let run = Properties.etob_run_of_trace (Failures.none ~n:2) trace in
  Alcotest.(check int) "tau = 11" 11 (Properties.total_order_time run)

let test_checker_orders_agree () =
  let a = msg 0 0 and b = msg 1 0 and c = msg 2 0 in
  Alcotest.(check bool) "disjoint ok" true (Properties.orders_agree [ a ] [ b ]);
  Alcotest.(check bool) "consistent" true
    (Properties.orders_agree [ a; b; c ] [ a; c ]);
  Alcotest.(check bool) "inconsistent" false
    (Properties.orders_agree [ a; b ] [ b; a ])

let test_checker_agreement_flags_missing () =
  let a = msg 0 0 in
  let trace = synthetic_trace [ (5, 0, [ a ]) ] [ (1, 0, a) ] ~n:2 in
  let run = Properties.etob_run_of_trace (Failures.none ~n:2) trace in
  Alcotest.(check bool) "flagged: p1 never delivers" false
    (Properties.check_agreement run).Properties.ok

let () =
  let qc = List.map QCheck_alcotest.to_alcotest
      [ prop_linearize_valid; prop_linearize_tie_break_independent;
        prop_linearize_monotone; prop_cg_matches_oracle;
        prop_promote_fresh_matches_oracle ]
  in
  let qc_runs = List.map QCheck_alcotest.to_alcotest
      [ prop_ec_omega_any_environment; prop_etob_omega_random_runs;
        prop_commit_safety_random_crashes; prop_full_stack_chaos;
        prop_alg5_matches_oracle ]
  in
  Alcotest.run "ec_core"
    [ ("app_msg",
       [ Alcotest.test_case "identity" `Quick test_app_msg_identity;
         Alcotest.test_case "prefix" `Quick test_app_msg_prefix ]);
      ("value",
       [ Alcotest.test_case "tag roundtrip" `Quick test_value_tag_roundtrip;
         Alcotest.test_case "tag rejects seq" `Quick test_value_tag_rejects_seq;
         Alcotest.test_case "compare total" `Quick test_value_compare_total ]);
      ("causal_graph",
       [ Alcotest.test_case "respects deps" `Quick test_cg_linearize_respects_deps;
         Alcotest.test_case "prefix kept" `Quick test_cg_prefix_kept;
         Alcotest.test_case "union commutative" `Quick test_cg_union_commutative_content;
         Alcotest.test_case "idempotent add" `Quick test_cg_idempotent_add ]
       @ qc);
      ("ec_omega (algorithm 4)",
       [ Alcotest.test_case "stable leader" `Quick test_ec_omega_stable_leader;
         Alcotest.test_case "late stabilization" `Quick test_ec_omega_late_stabilization;
         Alcotest.test_case "no correct majority" `Quick test_ec_omega_no_majority;
         Alcotest.test_case "rotating prefix" `Quick test_ec_omega_rotating_prefix;
         Alcotest.test_case "minimum system size (n=2)" `Quick
           test_minimum_system_size ]);
      ("etob_omega (algorithm 5)",
       [ Alcotest.test_case "failure-free run" `Quick test_etob_omega_failure_free;
         Alcotest.test_case "strong TOB with stable omega (P2)" `Quick
           test_etob_omega_strong_tob_with_stable_omega;
         Alcotest.test_case "partition convergence + Lemma 3 bound" `Quick
           test_etob_omega_partition_convergence;
         Alcotest.test_case "no correct majority" `Quick test_etob_omega_no_majority;
         Alcotest.test_case "two-step latency (P1)" `Quick
           test_etob_omega_two_step_latency;
         Alcotest.test_case "over elected omega" `Quick
           test_etob_omega_with_elected_omega ]);
      ("service details",
       [ Alcotest.test_case "fresh_msg causal deps" `Quick test_fresh_msg_causal_deps;
         Alcotest.test_case "EIC driven by inputs" `Quick test_eic_input_driven ]);
      ("binary lift ([23])",
       [ Alcotest.test_case "stable leader" `Quick test_binary_lift_stable_leader;
         Alcotest.test_case "late stabilization" `Quick
           test_binary_lift_late_stabilization;
         Alcotest.test_case "with crash" `Quick test_binary_lift_with_crash ]);
      ("transformations (theorem 1)",
       [ Alcotest.test_case "algorithm 2 tag roundtrip" `Quick
           test_etob_to_ec_tag_roundtrip;
         Alcotest.test_case "algorithm 2 tag rejects garbage" `Quick
           test_etob_to_ec_tag_rejects_garbage;
         Alcotest.test_case "algorithm 1 over 4 is ETOB" `Quick
           test_alg1_over_alg4_is_etob;
         Alcotest.test_case "algorithm 2 over 5 is EC" `Quick test_alg2_over_alg5_is_ec;
         Alcotest.test_case "algorithm 2 over paxos is consensus" `Quick
           test_alg2_over_paxos_is_consensus ]);
      ("gossip baseline (no omega)",
       [ Alcotest.test_case "converges but never stabilizes" `Quick
           test_gossip_baseline_converges_but_never_stabilizes ]);
      ("commit_prefix (section 7)",
       [ Alcotest.test_case "stable period commits everything" `Quick
           test_commit_prefix_stable_period;
         Alcotest.test_case "commit follows delivery" `Quick
           test_commit_prefix_latency_after_delivery;
         Alcotest.test_case "abstains without majority" `Quick
           test_commit_prefix_abstains_without_majority;
         Alcotest.test_case "partition: majority side only" `Quick
           test_commit_prefix_partition_commits_majority_side_only ]);
      ("eic (appendix A)",
       [ Alcotest.test_case "algorithm 6 gives EIC" `Quick test_alg6_gives_eic;
         Alcotest.test_case "revocations happen and stop" `Quick
           test_alg6_revokes_under_disagreement;
         Alcotest.test_case "algorithm 7 over 6 is EC" `Quick test_alg7_over_alg6_is_ec ]);
      ("property checkers",
       [ Alcotest.test_case "flags duplication" `Quick test_checker_flags_duplication;
         Alcotest.test_case "flags creation" `Quick test_checker_flags_creation;
         Alcotest.test_case "flags causal violation" `Quick
           test_checker_flags_causal_violation;
         Alcotest.test_case "measures stability tau" `Quick
           test_checker_measures_stability_tau;
         Alcotest.test_case "measures total-order tau" `Quick
           test_checker_measures_total_order_tau;
         Alcotest.test_case "orders_agree" `Quick test_checker_orders_agree;
         Alcotest.test_case "agreement flags missing" `Quick
           test_checker_agreement_flags_missing ]);
      ("random runs", qc_runs);
    ]
