(* Tests for the hand-wired stacks ([Harness.Stacks]) and the statistics
   helpers: the shared wiring used by every other suite deserves its own
   checks. *)

open Simulator
open Ec_core

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let test_stats_basic () =
  match Harness.Stats.of_list [ 5; 1; 9; 3; 7 ] with
  | None -> Alcotest.fail "stats"
  | Some s ->
    Alcotest.(check int) "count" 5 s.Harness.Stats.count;
    Alcotest.(check (float 0.001)) "mean" 5.0 s.Harness.Stats.mean;
    Alcotest.(check int) "min" 1 s.Harness.Stats.min;
    Alcotest.(check int) "max" 9 s.Harness.Stats.max;
    Alcotest.(check int) "p50" 5 s.Harness.Stats.p50

let test_stats_empty () =
  Alcotest.(check bool) "empty" true (Harness.Stats.of_list [] = None)

let test_stats_percentile_edges () =
  let sorted = [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ] in
  Alcotest.(check int) "p10" 1 (Harness.Stats.percentile sorted 0.1);
  Alcotest.(check int) "p95" 10 (Harness.Stats.percentile sorted 0.95);
  Alcotest.(check int) "p100" 10 (Harness.Stats.percentile sorted 1.0)

let prop_stats_bounds =
  QCheck.Test.make ~name:"stats: mean and percentiles within [min, max]"
    ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 1 40) (int_bound 1000))
    (fun samples ->
       match Harness.Stats.of_list samples with
       | None -> samples = []
       | Some s ->
         let open Harness.Stats in
         float_of_int s.min <= s.mean
         && s.mean <= float_of_int s.max
         && s.min <= s.p50 && s.p50 <= s.p95 && s.p95 <= s.max)

(* ------------------------------------------------------------------ *)
(* Hand-wired stacks                                                   *)
(* ------------------------------------------------------------------ *)

let test_spread_posts_shape () =
  let posts = Harness.Stacks.spread_posts ~n:3 ~count:7 ~from_time:10 ~every:5 in
  Alcotest.(check int) "count" 7 (List.length posts);
  List.iteri
    (fun i (t, p, input) ->
       Alcotest.(check int) "time" (10 + (i * 5)) t;
       Alcotest.(check int) "round robin" (i mod 3) p;
       match input with
       | Harness.Stacks.Post _ -> ()
       | _ -> Alcotest.fail "not a post")
    posts

let test_engine_config_reflects_setup () =
  let setup = { (Harness.Stacks.default ~n:4 ~deadline:99) with
                seed = 7; timer_period = 5 } in
  let config = Harness.Stacks.engine_config setup in
  Alcotest.(check int) "n" 4 config.Engine.n;
  Alcotest.(check int) "deadline" 99 config.Engine.deadline;
  Alcotest.(check int) "seed" 7 config.Engine.seed;
  Alcotest.(check int) "timer" 5 config.Engine.timer_period

let test_omega_stabilization_reporting () =
  let s_oracle = { (Harness.Stacks.default ~n:3 ~deadline:10) with
                   omega = Harness.Stacks.Oracle
                       { stabilize_at = 17; pre = Detectors.Omega.Self_trust } } in
  let s_elected = { s_oracle with
                    omega = Harness.Stacks.Elected { initial_timeout = 4 } } in
  Alcotest.(check (option int)) "oracle" (Some 17)
    (Harness.Stacks.omega_stabilization s_oracle);
  Alcotest.(check (option int)) "elected" None
    (Harness.Stacks.omega_stabilization s_elected)

(* The three ETOB stacks are interchangeable behind the same service: the
   same workload passes the same base checks on each. *)
let test_all_impls_same_interface () =
  List.iter
    (fun impl ->
       let setup = { (Harness.Stacks.default ~n:3 ~deadline:300) with
                     omega = Harness.Stacks.Oracle
                         { stabilize_at = 0; pre = Detectors.Omega.Self_trust } } in
       let inputs = Harness.Stacks.spread_posts ~n:3 ~count:6 ~from_time:5 ~every:4 in
       let trace = Harness.Stacks.run_etob ~inputs setup impl in
       let report = Harness.Stacks.etob_report setup trace in
       Alcotest.(check bool) "base ok" true (Properties.etob_base_ok report))
    [ Harness.Stacks.Algorithm_5; Harness.Stacks.Paxos_baseline;
      Harness.Stacks.Algorithm_1_over_4 ]

(* Determinism across the whole harness: identical setups, identical
   traces. *)
let test_harness_deterministic () =
  let mk () =
    let setup = { (Harness.Stacks.default ~n:4 ~deadline:200) with
                  seed = 11;
                  delay = Net.uniform ~min:1 ~max:5;
                  omega = Harness.Stacks.Elected { initial_timeout = 5 } } in
    let inputs = Harness.Stacks.spread_posts ~n:4 ~count:8 ~from_time:5 ~every:4 in
    Harness.Stacks.run_etob ~inputs setup Harness.Stacks.Algorithm_5
  in
  let t1 = mk () and t2 = mk () in
  Alcotest.(check int) "same sends" (Trace.sent t1) (Trace.sent t2);
  Alcotest.(check int) "same steps" (Trace.steps t1) (Trace.steps t2);
  let digest t =
    Format.asprintf "%a" App_msg.pp_seq
      (Properties.final_d (Properties.etob_run_of_trace (Failures.none ~n:4) t) 0)
  in
  Alcotest.(check string) "same final sequence" (digest t1) (digest t2)

(* The refactor guarantee: the mutable-heap engine replays the exact
   byte-for-byte trace the persistent-heap engine produced.  The golden
   file was generated with the pre-refactor engine and committed. *)
let test_golden_trace_byte_identical () =
  let setup = { (Harness.Stacks.default ~n:3 ~deadline:120) with
                delay = Net.uniform ~min:1 ~max:4 } in
  let inputs = Harness.Stacks.spread_posts ~n:3 ~count:6 ~from_time:8 ~every:5 in
  let trace = Harness.Stacks.run_etob ~inputs setup Harness.Stacks.Algorithm_5 in
  let got = Format.asprintf "%a" Trace.pp trace in
  let golden =
    In_channel.with_open_bin "golden_stable_trace.txt" In_channel.input_all
  in
  (* On mismatch, persist the produced trace next to the golden file and
     point at a ready-to-run diff command: the full strings are too long
     for Alcotest's assertion output to be usable. *)
  if got <> golden then begin
    let got_path = "golden_stable_trace.got.txt" in
    Out_channel.with_open_bin got_path (fun oc ->
        Out_channel.output_string oc got);
    Alcotest.failf
      "golden trace mismatch (%d vs %d bytes); inspect with:\n  diff %s %s"
      (String.length golden) (String.length got)
      (Filename.concat (Sys.getcwd ()) "golden_stable_trace.txt")
      (Filename.concat (Sys.getcwd ()) got_path)
  end

(* ------------------------------------------------------------------ *)
(* Sweep                                                               *)
(* ------------------------------------------------------------------ *)

let sweep_run ~seed =
  let setup = { (Harness.Stacks.default ~n:3 ~deadline:150) with seed } in
  let inputs = Harness.Stacks.spread_posts ~n:3 ~count:4 ~from_time:5 ~every:4 in
  let trace = Harness.Stacks.run_etob ~inputs setup Harness.Stacks.Algorithm_5 in
  (Trace.sent trace, Trace.delivered trace, Trace.steps trace)

(* Domain count must not change results: same seeds, same values, same
   order. *)
let test_sweep_parallel_matches_sequential () =
  let seeds = Harness.Sweep.seed_range ~base:100 ~count:12 in
  let seq = Harness.Sweep.map ~domains:1 ~seeds sweep_run in
  let par = Harness.Sweep.map ~domains:4 ~seeds sweep_run in
  Alcotest.(check int) "all runs" 12 (List.length par);
  Alcotest.(check bool) "parallel = sequential" true (seq = par);
  List.iter2
    (fun s r -> Alcotest.(check int) "seed order preserved" s r.Harness.Sweep.seed)
    seeds par

let test_sweep_verdicts () =
  let results =
    List.map (fun seed -> { Harness.Sweep.seed; value = seed mod 3 })
      [ 0; 1; 2; 3; 4; 5 ]
  in
  let v = Harness.Sweep.verdicts results ~ok:(fun x -> x <> 0) in
  Alcotest.(check int) "runs" 6 v.Harness.Sweep.runs;
  Alcotest.(check int) "passed" 4 v.Harness.Sweep.passed;
  Alcotest.(check (list int)) "failed seeds" [ 0; 3 ] v.Harness.Sweep.failed_seeds

let test_sweep_mean_stddev () =
  (match Harness.Sweep.mean_stddev [] with
   | None -> ()
   | Some _ -> Alcotest.fail "empty list should give None");
  match Harness.Sweep.mean_stddev [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ] with
  | None -> Alcotest.fail "non-empty"
  | Some (mean, stddev) ->
    Alcotest.(check (float 1e-9)) "mean" 5.0 mean;
    Alcotest.(check (float 1e-9)) "stddev" 2.0 stddev

(* A raising run must surface as a failed verdict for its seed, not abort
   the sweep: the explorer's parallel mode relies on this to keep scanning
   past a crashing plan. *)
let test_sweep_map_safe_captures_exceptions () =
  let seeds = [ 1; 2; 3; 4; 5 ] in
  let results =
    Harness.Sweep.map_safe ~domains:2 ~seeds (fun ~seed ->
        if seed mod 2 = 0 then failwith (Printf.sprintf "boom %d" seed)
        else seed * 10)
  in
  Alcotest.(check int) "all seeds accounted for" 5 (List.length results);
  List.iter2
    (fun seed r ->
       Alcotest.(check int) "seed order preserved" seed r.Harness.Sweep.seed;
       match r.Harness.Sweep.value with
       | Ok v -> Alcotest.(check int) "value" (seed * 10) v
       | Error msg ->
         let contains hay needle =
           let nh = String.length hay and nn = String.length needle in
           let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
           go 0
         in
         Alcotest.(check bool) "raising seed" true (seed mod 2 = 0);
         Alcotest.(check bool) "message kept" true
           (contains msg (Printf.sprintf "boom %d" seed)))
    seeds results;
  let v = Harness.Sweep.verdicts results ~ok:Result.is_ok in
  Alcotest.(check int) "passed" 3 v.Harness.Sweep.passed;
  Alcotest.(check (list int)) "failed seeds" [ 2; 4 ] v.Harness.Sweep.failed_seeds

let test_sweep_merged_latency_stats () =
  match Harness.Sweep.merged_latency_stats [ [| 1; 3 |]; [||]; [| 5 |] ] with
  | None -> Alcotest.fail "non-empty samples"
  | Some s ->
    Alcotest.(check int) "count" 3 s.Harness.Stats.count;
    Alcotest.(check int) "min" 1 s.Harness.Stats.min;
    Alcotest.(check int) "max" 5 s.Harness.Stats.max

(* ------------------------------------------------------------------ *)
(* Timeline                                                            *)
(* ------------------------------------------------------------------ *)

let test_timeline_renders () =
  (* The crash sits inside the active window (the rendered horizon is the
     last recorded event), so blanked cells follow it. *)
  let pattern = Failures.of_crashes ~n:3 [ (2, 30) ] in
  let setup = { (Harness.Stacks.default ~n:3 ~deadline:200) with
                pattern;
                omega = Harness.Stacks.Oracle
                    { stabilize_at = 0; pre = Detectors.Omega.Self_trust } } in
  let inputs = Harness.Stacks.spread_posts ~n:3 ~count:4 ~from_time:10 ~every:10 in
  let trace = Harness.Stacks.run_etob ~inputs setup Harness.Stacks.Algorithm_5 in
  let rendered = Harness.Timeline.render ~width:40 ~pattern trace in
  let lines = String.split_on_char '\n' rendered in
  (* Header + 3 lanes + legend (+ trailing empty). *)
  Alcotest.(check bool) "enough lines" true (List.length lines >= 5);
  Alcotest.(check bool) "has broadcast marks" true (String.contains rendered 'B');
  Alcotest.(check bool) "has delivery marks" true (String.contains rendered 'd');
  Alcotest.(check bool) "has crash mark" true (String.contains rendered 'X');
  (* The crashed lane goes blank after the crash: its line ends in spaces. *)
  let p2_line = List.nth lines 3 in
  Alcotest.(check bool) "blank after crash" true
    (String.length p2_line > 0 && p2_line.[String.length p2_line - 1] = ' ')

(* ------------------------------------------------------------------ *)
(* Crash-recovery stack                                                *)
(* ------------------------------------------------------------------ *)

(* The crash-stop model is untouched by the recovery machinery: a run
   with a permanent crash replays the committed golden trace
   byte-for-byte (captured before the recovery runtime landed). *)
let test_golden_crash_trace_byte_identical () =
  let setup =
    { (Harness.Stacks.default ~n:4 ~deadline:160) with
      seed = 13;
      delay = Net.uniform ~min:1 ~max:4;
      pattern = Failures.of_crashes ~n:4 [ (3, 40) ] }
  in
  let inputs =
    Harness.Stacks.spread_posts ~n:4 ~count:8 ~from_time:6 ~every:6
  in
  let trace =
    Harness.Stacks.run_etob ~inputs setup Harness.Stacks.Algorithm_5
  in
  let got = Format.asprintf "%a" Trace.pp trace in
  let golden =
    In_channel.with_open_bin "golden_crash_trace.txt" In_channel.input_all
  in
  if got <> golden then begin
    let got_path = "golden_crash_trace.got.txt" in
    Out_channel.with_open_bin got_path (fun oc ->
        Out_channel.output_string oc got);
    Alcotest.failf
      "golden crash trace mismatch (%d vs %d bytes); inspect with:\n  diff %s %s"
      (String.length golden) (String.length got)
      (Filename.concat (Sys.getcwd ()) "golden_crash_trace.txt")
      (Filename.concat (Sys.getcwd ()) got_path)
  end

let recovery_setup =
  { (Harness.Stacks.default ~n:4 ~deadline:300) with
    seed = 3;
    delay = Net.uniform ~min:1 ~max:3;
    pattern =
      Failures.crash_recover_at (Failures.none ~n:4) 1 ~at:60 ~recover_at:140 }

let recovery_inputs =
  Harness.Stacks.spread_posts ~n:4 ~count:12 ~from_time:8 ~every:20

let test_recoverable_clean_recovery () =
  let trace, handles, stores =
    Harness.Stacks.run_recoverable ~inputs:recovery_inputs recovery_setup
  in
  let report = Harness.Stacks.etob_report recovery_setup trace in
  Alcotest.(check bool) "base ETOB properties hold" true
    (Properties.etob_base_ok report);
  Alcotest.(check bool) "no sequence number reused" true
    report.Properties.distinct_broadcasts.Properties.ok;
  Alcotest.(check bool) "restarted handle knows it" true
    (Recoverable.was_restarted handles.(1));
  Alcotest.(check bool) "replay recovered pre-crash messages" true
    (Recoverable.replayed_msgs handles.(1) > 0);
  Alcotest.(check bool) "links retransmitted into the window" true
    (Array.exists (fun h -> Recoverable.retransmitted h > 0) handles);
  Alcotest.(check int) "one restart on the victim's store" 1
    (Persist.Store.stats stores.(1)).Persist.Store.restarts

let test_recoverable_deterministic () =
  let show () =
    let trace, _, _ =
      Harness.Stacks.run_recoverable ~inputs:recovery_inputs recovery_setup
    in
    Format.asprintf "%a" Trace.pp trace
  in
  Alcotest.(check string) "same config, same trace" (show ()) (show ())

let test_recoverable_amnesia_caught () =
  let trace, _, _ =
    Harness.Stacks.run_recoverable ~inputs:recovery_inputs
      ~mutation:Recoverable.Skip_log_replay recovery_setup
  in
  let report = Harness.Stacks.etob_report recovery_setup trace in
  Alcotest.(check bool) "skipping the replay reuses sequence numbers" false
    report.Properties.distinct_broadcasts.Properties.ok

(* A run without downtime windows exercises the same wrapped stack and
   must stay clean: the log/retransmission layer is behaviour-preserving
   when nobody crashes. *)
let test_recoverable_no_window_clean () =
  let setup =
    { recovery_setup with pattern = Failures.none ~n:4 }
  in
  let trace, handles, _ =
    Harness.Stacks.run_recoverable ~inputs:recovery_inputs setup
  in
  let report = Harness.Stacks.etob_report setup trace in
  Alcotest.(check bool) "clean" true (Properties.etob_base_ok report);
  Alcotest.(check bool) "nobody restarted" false
    (Array.exists Recoverable.was_restarted handles)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest [ prop_stats_bounds ] in
  Alcotest.run "harness"
    [ ("stats",
       [ Alcotest.test_case "basic" `Quick test_stats_basic;
         Alcotest.test_case "empty" `Quick test_stats_empty;
         Alcotest.test_case "percentile edges" `Quick test_stats_percentile_edges ]
       @ qc);
      ("scenario",
       [ Alcotest.test_case "spread_posts shape" `Quick test_spread_posts_shape;
         Alcotest.test_case "engine config" `Quick test_engine_config_reflects_setup;
         Alcotest.test_case "omega stabilization" `Quick
           test_omega_stabilization_reporting;
         Alcotest.test_case "impls interchangeable" `Quick
           test_all_impls_same_interface;
         Alcotest.test_case "deterministic" `Quick test_harness_deterministic;
         Alcotest.test_case "golden trace byte-identical" `Quick
           test_golden_trace_byte_identical ]);
      ("sweep",
       [ Alcotest.test_case "parallel matches sequential" `Quick
           test_sweep_parallel_matches_sequential;
         Alcotest.test_case "verdicts" `Quick test_sweep_verdicts;
         Alcotest.test_case "map_safe captures exceptions" `Quick
           test_sweep_map_safe_captures_exceptions;
         Alcotest.test_case "mean stddev" `Quick test_sweep_mean_stddev;
         Alcotest.test_case "merged latency stats" `Quick
           test_sweep_merged_latency_stats ]);
      ("timeline",
       [ Alcotest.test_case "renders" `Quick test_timeline_renders ]);
      ("recovery",
       [ Alcotest.test_case "golden crash trace byte-identical" `Quick
           test_golden_crash_trace_byte_identical;
         Alcotest.test_case "clean recovery" `Quick
           test_recoverable_clean_recovery;
         Alcotest.test_case "deterministic" `Quick
           test_recoverable_deterministic;
         Alcotest.test_case "amnesia caught" `Quick
           test_recoverable_amnesia_caught;
         Alcotest.test_case "no window stays clean" `Quick
           test_recoverable_no_window_clean ]);
    ]
