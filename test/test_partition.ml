(* Partition-hardening tests: lossy/one-way/flapping fault models, the
   multi-window partition schedules, the anti-entropy catch-up layer, the
   convergence watchdog and the partition-aware spec clauses — plus the
   QCheck safety property over arbitrary message-losing schedules composed
   with crash-recovery plans. *)

open Simulator
open Ec_core
module Adversity = Harness.Adversity
module Builder = Harness.Builder

let rng = Rng.create 3

(* ------------------------------------------------------------------ *)
(* Net: lossy / one-way / flapping fault models                        *)
(* ------------------------------------------------------------------ *)

let fault_fn fm =
  match Net.instantiate_faults fm with
  | Some f -> f
  | None -> Alcotest.fail "expected a real fault model, got no_faults"

let is_drop = function Net.Drop -> true | _ -> false
let is_deliver = function Net.Deliver -> true | _ -> false

let test_lossy_drops_cross_block_only () =
  let spec =
    { Net.blocks = [ [ 0; 1 ]; [ 2; 3 ] ]; from_time = 10; until_time = 30 }
  in
  let f = fault_fn (Net.lossy_partition spec) in
  Alcotest.(check bool) "cross dropped" true
    (is_drop (f ~src:0 ~dst:2 ~now:15 ~rng));
  Alcotest.(check bool) "cross dropped (reverse)" true
    (is_drop (f ~src:3 ~dst:1 ~now:15 ~rng));
  Alcotest.(check bool) "same block flows" true
    (is_deliver (f ~src:0 ~dst:1 ~now:15 ~rng));
  Alcotest.(check bool) "before window" true
    (is_deliver (f ~src:0 ~dst:2 ~now:9 ~rng));
  Alcotest.(check bool) "at heal" true
    (is_deliver (f ~src:0 ~dst:2 ~now:30 ~rng))

let test_oneway_drops_one_direction () =
  let f =
    fault_fn
      (Net.oneway_partition ~from_block:[ 0; 1 ] ~from_time:10 ~until_time:30)
  in
  Alcotest.(check bool) "from-block outward dropped" true
    (is_drop (f ~src:0 ~dst:2 ~now:15 ~rng));
  Alcotest.(check bool) "reverse direction flows" true
    (is_deliver (f ~src:2 ~dst:0 ~now:15 ~rng));
  Alcotest.(check bool) "inside from-block flows" true
    (is_deliver (f ~src:0 ~dst:1 ~now:15 ~rng));
  Alcotest.(check bool) "outside window" true
    (is_deliver (f ~src:0 ~dst:2 ~now:30 ~rng))

let test_flapping_alternates () =
  let f =
    fault_fn
      (Net.flapping_partition
         ~blocks:[ [ 0 ]; [ 1 ] ]
         ~from_time:10 ~until_time:30 ~period:5)
  in
  let fate now = f ~src:0 ~dst:1 ~now ~rng in
  Alcotest.(check bool) "before" true (is_deliver (fate 9));
  Alcotest.(check bool) "first down-window" true (is_drop (fate 12));
  Alcotest.(check bool) "first up-window" true (is_deliver (fate 17));
  Alcotest.(check bool) "second down-window" true (is_drop (fate 22));
  Alcotest.(check bool) "second up-window" true (is_deliver (fate 27));
  Alcotest.(check bool) "after" true (is_deliver (fate 30))

let test_repeating_windows_shape () =
  Alcotest.(check (list (pair int int)))
    "down/up alternation"
    [ (10, 15); (20, 25) ]
    (Net.repeating_windows ~from_time:10 ~until_time:30 ~down:5 ~up:5);
  Alcotest.(check (list (pair int int)))
    "last window clipped"
    [ (10, 15); (20, 23) ]
    (Net.repeating_windows ~from_time:10 ~until_time:23 ~down:5 ~up:5)

(* ------------------------------------------------------------------ *)
(* Anti-entropy catch-up and the convergence watchdog                  *)
(* ------------------------------------------------------------------ *)

(* The E18 shape, test-sized: p3 cut off by a LOSSY partition across most
   of the workload; its partition-era posts reach nobody and everybody
   else's posts never reach it.  Only anti-entropy can repair both
   directions (the leader's promotes only re-teach what the leader
   knows). *)
let n = 4
let deadline = 240
let cut_from = 40
let cut_until = 120
let posts = 12
let last_post = 8 + ((posts - 1) * 8)

let partition_setup () =
  { (Harness.Stacks.default ~n ~deadline) with
    Harness.Stacks.delay = Net.uniform ~min:1 ~max:3;
    faults =
      Net.lossy_partition
        { Net.blocks = [ [ 0; 1; 2 ]; [ 3 ] ];
          from_time = cut_from;
          until_time = cut_until };
    omega = Harness.Stacks.Oracle { stabilize_at = 0; pre = Detectors.Omega.Self_trust } }

let run_partitioned ?ae_mutation ?(mode = Anti_entropy.Digest) () =
  let setup = partition_setup () in
  let inputs =
    Harness.Stacks.spread_posts ~n ~count:posts ~from_time:8 ~every:8
  in
  let trace, handles =
    Harness.Stacks.run_etob_ae ~inputs
      ~ae_config:{ Anti_entropy.default_config with Anti_entropy.mode }
      ?ae_mutation setup
  in
  let run =
    Properties.etob_run_of_trace setup.Harness.Stacks.pattern trace
  in
  (run, handles)

let settle = max cut_until last_post
let bound = deadline - settle

let test_ae_heals_lossy_partition () =
  let run, _ = run_partitioned () in
  let report = Properties.etob_report run in
  Alcotest.(check bool) "base TOB properties" true
    (Properties.etob_base_ok report);
  match Harness.Watchdog.check ~settle ~bound run with
  | Harness.Watchdog.Converged { at } ->
    Alcotest.(check bool) "convergence needed the heal" true (at > cut_from)
  | Harness.Watchdog.Stalled _ as v ->
    Alcotest.failf "expected convergence, got %a" Harness.Watchdog.pp v

(* Delta traffic is O(missing), not O(history): the digest run's repair
   payload is in the order of what was actually learned, and strictly
   below the flood strawman's periodic full-set pushes. *)
let test_ae_delta_traffic_proportional () =
  let payload_of handles =
    Array.fold_left
      (fun (payload, learned) (_, ae) ->
         let s = Anti_entropy.stats ae in
         ( payload + s.Anti_entropy.delta_msgs + s.Anti_entropy.flood_msgs,
           learned + s.Anti_entropy.learned ))
      (0, 0) handles
  in
  let _, digest_handles = run_partitioned ~mode:Anti_entropy.Digest () in
  let _, flood_handles = run_partitioned ~mode:Anti_entropy.Flood () in
  let d_payload, d_learned = payload_of digest_handles in
  let f_payload, _ = payload_of flood_handles in
  Alcotest.(check bool) "something was repaired" true (d_learned > 0);
  Alcotest.(check bool)
    (Printf.sprintf "digest payload %d bounded by missing (%d learned)"
       d_payload d_learned)
    true
    (d_payload <= 10 * d_learned);
  Alcotest.(check bool)
    (Printf.sprintf "digest %d strictly below flood %d" d_payload f_payload)
    true (d_payload < f_payload)

let test_skip_digest_stalls () =
  let run, _ = run_partitioned ~ae_mutation:Anti_entropy.Skip_digest () in
  match Harness.Watchdog.check ~settle ~bound run with
  | Harness.Watchdog.Converged _ ->
    Alcotest.fail "skip-digest mutant converged: watchdog blind"
  | Harness.Watchdog.Stalled { laggards; _ } as v ->
    Alcotest.(check bool) "someone is behind" true (laggards <> []);
    List.iter
      (fun l ->
         Alcotest.(check bool) "missing messages counted" true
           (l.Harness.Watchdog.missing >= 1))
      laggards;
    List.iter
      (fun line ->
         Alcotest.(check bool)
           (Printf.sprintf "diagnosis line %S" line)
           true
           (String.length line >= 9 && String.sub line 0 9 = "liveness:"))
      (Harness.Watchdog.violations v)

(* ------------------------------------------------------------------ *)
(* Adversity and repro text forms                                      *)
(* ------------------------------------------------------------------ *)

let roundtrip_specs =
  [ Adversity.Lossy_partition { left = [ 0; 2 ]; from_time = 10; until_time = 64 };
    Adversity.Oneway_partition { left = [ 1 ]; from_time = 5; until_time = 200 };
    Adversity.Flapping_partition
      { left = [ 0; 1 ]; from_time = 17; until_time = 64; period = 3 } ]

let test_adversity_line_roundtrip () =
  List.iter
    (fun spec ->
       match Adversity.of_line (Adversity.to_line spec) with
       | Ok spec' ->
         Alcotest.(check string) "roundtrip" (Adversity.to_line spec)
           (Adversity.to_line spec')
       | Error msg -> Alcotest.failf "parse %s: %s" (Adversity.to_line spec) msg)
    roundtrip_specs

let test_adversity_settles_at_heal () =
  List.iter
    (fun spec ->
       let until =
         match spec with
         | Adversity.Lossy_partition { until_time; _ }
         | Adversity.Oneway_partition { until_time; _ }
         | Adversity.Flapping_partition { until_time; _ } -> until_time
         | _ -> assert false
       in
       Alcotest.(check int) "nothing buffered: settle = heal" until
         (Adversity.settle_time ~base_max:3 [ spec ]))
    roundtrip_specs

(* A partition finding with the partition-aware clauses: [Builder.of_string]
   reads the anti-entropy stack, the watchdog checker and the
   anti-entropy mutant, keeps the plan, and its spec text is
   byte-stable. *)
let partition_repro ~stack =
  String.concat "\n"
    ([ "ecsim-spec v1"; "stack " ^ stack; "n 4"; "seed 46"; "deadline 240";
       "timer-period 2"; "delay uniform min=1 max=3";
       "workload auto count=12 stretch=off"; "ae-mutant skip-digest";
       "check etob tau=auto"; "check watchdog auto"; "digest -";
       "violation liveness: p3 not converged by 140";
       Printf.sprintf "plan %d" (List.length roundtrip_specs) ]
     @ Adversity.to_lines roundtrip_specs
     @ [ "end" ])

let test_repro_roundtrip_partition_headers () =
  match Builder.of_string (partition_repro ~stack:"alg5+ae") with
  | Error msg -> Alcotest.failf "spec parse: %s" msg
  | Ok b ->
    Alcotest.(check string) "ae preserved" "alg5+ae"
      (Builder.stack_name b.Builder.stack);
    Alcotest.(check bool) "watchdog preserved" true
      (List.mem (Builder.Watchdog Builder.Wd_auto) b.Builder.checkers);
    Alcotest.(check bool) "ae-mutant preserved" true
      (b.Builder.ae_mutation = Some Anti_entropy.Skip_digest);
    Alcotest.(check (list string)) "plan preserved"
      (Adversity.to_lines roundtrip_specs)
      (Adversity.to_lines b.Builder.plan);
    let text = Builder.to_string b in
    (match Builder.of_string text with
     | Error msg -> Alcotest.failf "spec parse: %s" msg
     | Ok b' ->
       Alcotest.(check string) "byte-stable text" text (Builder.to_string b'))

let test_repro_bad_header_names_line () =
  match Builder.of_string (partition_repro ~stack:"alg5+maybe") with
  | Ok _ -> Alcotest.fail "mangled stack line parsed"
  | Error msg ->
    let contains_line =
      let len = String.length msg in
      let rec scan i =
        i + 4 <= len && (String.sub msg i 4 = "line" || scan (i + 1))
      in
      scan 0
    in
    Alcotest.(check bool)
      (Printf.sprintf "error names the line: %s" msg)
      true contains_line

(* ------------------------------------------------------------------ *)
(* QCheck: safety under arbitrary message loss + crash-recovery        *)
(* ------------------------------------------------------------------ *)

(* P3 (causal order) and the other safety properties must hold under ANY
   lossy/one-way/flapping schedule composed with crash-recovery plans —
   including schedules that never heal.  Liveness is legitimately lost
   under such plans, so the watchdog stays off. *)
let prop_safety_under_partition_loss =
  QCheck.Test.make
    ~name:"alg5+ae: causal order under arbitrary message-losing schedules"
    ~count:30
    QCheck.(
      pair
        (Qgen.partition_recovery_plan_arb ~n:4 ~deadline:240)
        (pair small_nat Qgen.delay_bounds_arb))
    (fun (plan, (seed, (min_d, max_d))) ->
       let t =
         Builder.template ~ae:true ~delay:(Builder.Uniform { min_d; max_d })
           Harness.Stacks.Algorithm_5
       in
       let o = Builder.run ~catch:true (Builder.with_plan ~seed t plan) in
       match o.Builder.report with
       | None -> false (* the run raised *)
       | Some r ->
         r.Properties.causal_order.Properties.ok
         && r.Properties.no_creation.Properties.ok
         && r.Properties.no_duplication.Properties.ok
         && r.Properties.distinct_broadcasts.Properties.ok)

(* ------------------------------------------------------------------ *)

let qc = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "partition"
    [ ("net-faults",
       [ Alcotest.test_case "lossy drops cross-block only" `Quick
           test_lossy_drops_cross_block_only;
         Alcotest.test_case "oneway drops one direction" `Quick
           test_oneway_drops_one_direction;
         Alcotest.test_case "flapping alternates" `Quick test_flapping_alternates;
         Alcotest.test_case "repeating_windows shape" `Quick
           test_repeating_windows_shape ]);
      ("anti-entropy",
       [ Alcotest.test_case "digest heals a lossy partition" `Quick
           test_ae_heals_lossy_partition;
         Alcotest.test_case "delta traffic is O(missing)" `Quick
           test_ae_delta_traffic_proportional;
         Alcotest.test_case "skip-digest stalls (watchdog catches)" `Quick
           test_skip_digest_stalls ]);
      ("text-forms",
       [ Alcotest.test_case "adversity line roundtrip" `Quick
           test_adversity_line_roundtrip;
         Alcotest.test_case "lossy settle = heal time" `Quick
           test_adversity_settles_at_heal;
         Alcotest.test_case "repro partition headers roundtrip" `Quick
           test_repro_roundtrip_partition_headers;
         Alcotest.test_case "repro bad header names its line" `Quick
           test_repro_bad_header_names_line ]);
      ("properties", qc [ prop_safety_under_partition_loss ]);
    ]
