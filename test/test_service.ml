(* Tests for the closed-loop client service layer (DESIGN.md §16): spec
   parsing and generators, the endpoint/client robustness loop over real
   stacks, replica-side dedup, metrics, and the E22 availability gates. *)

open Simulator
open Replication
module Spec = Harness.Service_spec
module Builder = Harness.Builder

(* ------------------------------------------------------------------ *)
(* Spec text form                                                      *)
(* ------------------------------------------------------------------ *)

(* The builder's tokenizer, in miniature: whitespace-separated k=v. *)
let fields_of_string s =
  String.split_on_char ' ' s
  |> List.filter (fun tok -> tok <> "")
  |> List.map (fun tok ->
         match String.index_opt tok '=' with
         | Some i ->
           ( String.sub tok 0 i,
             String.sub tok (i + 1) (String.length tok - i - 1) )
         | None -> (tok, ""))

let reparse spec = Spec.of_fields (fields_of_string (Spec.to_string spec))

let contains_substring s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_spec_default_roundtrip () =
  match reparse Spec.default with
  | Ok spec -> Alcotest.(check bool) "default roundtrips" true (spec = Spec.default)
  | Error msg -> Alcotest.failf "default spec did not reparse: %s" msg

let test_spec_field_errors () =
  let expect_error fields fragment =
    match Spec.of_fields fields with
    | Ok _ -> Alcotest.failf "fields parsed despite %s" fragment
    | Error msg ->
      Alcotest.(check bool)
        (Printf.sprintf "%S mentions %S" msg fragment)
        true
        (contains_substring msg fragment)
  in
  expect_error [ ("clients", "zero") ] "integer";
  expect_error [ ("clients", "0") ] "clients";
  expect_error [ ("arrival", "sometimes") ] "arrival";
  expect_error [ ("backoff", "8:2") ] "backoff cap";
  expect_error [ ("skew", "140") ] "percentage";
  expect_error [ ("mood", "strong") ] "unknown service field"

let prop_spec_roundtrip =
  QCheck.Test.make ~count:200 ~name:"service spec roundtrips through its text form"
    Qgen.service_spec_arb
    (fun spec ->
      match reparse spec with Ok spec' -> spec' = spec | Error _ -> false)

let prop_generated_specs_valid =
  QCheck.Test.make ~count:200 ~name:"generated service specs always validate"
    Qgen.service_spec_arb
    (fun spec ->
      match Spec.validate spec with Ok _ -> true | Error _ -> false)

let test_sampled_specs_deterministic () =
  let a = Service.Experiment.sample_specs ~seed:3 ~count:4 in
  let b = Service.Experiment.sample_specs ~seed:3 ~count:4 in
  Alcotest.(check bool) "same seed, same samples" true (a = b)

(* ------------------------------------------------------------------ *)
(* Builder integration: the service header line                        *)
(* ------------------------------------------------------------------ *)

let base_builder () =
  Builder.create ~seed:7 ~n:3 ~deadline:120
    (Builder.Etob Harness.Stacks.Algorithm_5)

let test_builder_service_roundtrip () =
  let spec = { Spec.default with Spec.clients = 2; skew_pct = 80 } in
  let b = { (base_builder ()) with Builder.service = Some spec } in
  match Builder.of_lines (Builder.to_lines b) with
  | Error msg -> Alcotest.failf "reparse: %s" msg
  | Ok b' ->
    Alcotest.(check bool) "service spec survives the text form" true
      (b'.Builder.service = Some spec);
    Alcotest.(check bool) "whole builder roundtrips" true (b = b')

(* A malformed service line is rejected with its line number, like every
   other spec shape. *)
let test_builder_service_error_names_line () =
  let b = { (base_builder ()) with Builder.service = Some Spec.default } in
  let lines = Builder.to_lines b in
  let lineno =
    1
    + (match
         List.find_index
           (fun l -> String.length l >= 8 && String.sub l 0 8 = "service ")
           lines
       with
      | Some i -> i
      | None -> Alcotest.fail "no service line emitted")
  in
  let check_error corrupted fragment =
    let lines' =
      List.mapi (fun i l -> if i = lineno - 1 then corrupted else l) lines
    in
    match Builder.of_lines lines' with
    | Ok _ -> Alcotest.failf "malformed %S parsed" corrupted
    | Error msg ->
      let want = Printf.sprintf "line %d" lineno in
      Alcotest.(check bool)
        (Printf.sprintf "%S names %S" msg want)
        true
        (contains_substring msg want && contains_substring msg fragment)
  in
  check_error "service clients=zero" "integer";
  check_error "service mood=great" "unknown service field";
  check_error "service backoff=9:2" "backoff cap"

(* ------------------------------------------------------------------ *)
(* Dedup machine                                                       *)
(* ------------------------------------------------------------------ *)

let wput ~client ~rid v = Command.wput ~client ~rid "k" v

let test_dedup_filter () =
  let log =
    [ wput ~client:0 ~rid:0 "a"; Command.put "x" "y";
      wput ~client:1 ~rid:0 "b"; wput ~client:0 ~rid:0 "dup";
      wput ~client:0 ~rid:1 "c"; wput ~client:1 ~rid:0 "dup2" ]
  in
  Alcotest.(check int) "two duplicates" 2 (Dedup.duplicates log);
  let kept = Dedup.filter log in
  Alcotest.(check int) "first occurrences kept" 4 (List.length kept);
  (* Same (client, rid) from different clients are distinct requests. *)
  Alcotest.(check bool) "provenance-free commands pass through" true
    (List.exists (fun c -> Command.rid_of c = None) kept)

let test_dedup_machine_matches_replay () =
  let log =
    [ wput ~client:2 ~rid:5 "v1"; wput ~client:2 ~rid:5 "v-dup";
      Command.put "p" "q"; wput ~client:3 ~rid:5 "w1";
      wput ~client:2 ~rid:6 "v2"; wput ~client:2 ~rid:5 "v-dup2" ]
  in
  let st = Machines.replay (module Service.Runner.Dkv) log in
  let replayed = Machines.replay (module Machines.Kv) (Dedup.filter log) in
  Alcotest.(check string) "inner state = filtered replay"
    (Machines.Kv.digest replayed)
    (Machines.Kv.digest (Service.Runner.Dkv.inner st));
  Alcotest.(check int) "suppressed = duplicates" (Dedup.duplicates log)
    (Service.Runner.Dkv.suppressed st);
  (* The duplicate writes were dropped, not last-wins applied. *)
  Alcotest.(check bool) "first occurrence wins" true
    (Machines.String_map.find_opt "k" (Service.Runner.Dkv.inner st) <> Some "v-dup2")

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let completed ~client ~rid ~ok ~latency ~endpoint =
  Service.Wire.Completed
    { client; rid; ok; overloaded = false; write = true; strong = true;
      latency; attempts = 1; endpoint }

let test_metrics_windows_and_probe () =
  let trace = Trace.create ~n:4 in
  let out ~time o = Trace.record_output trace ~time ~proc:3 o in
  (* Started at 8 (window 0), 23 (window 2), 29 (window 2). *)
  out ~time:12 (completed ~client:3 ~rid:0 ~ok:true ~latency:4 ~endpoint:0);
  out ~time:25 (completed ~client:3 ~rid:1 ~ok:false ~latency:2 ~endpoint:1);
  out ~time:29 (completed ~client:3 ~rid:2 ~ok:true ~latency:0 ~endpoint:1);
  let spec = { Spec.default with Spec.window = 10 } in
  let m = Service.Metrics.of_trace ~spec ~horizon:30 trace in
  Alcotest.(check int) "requests" 3 m.Service.Metrics.requests;
  Alcotest.(check int) "ok" 2 m.Service.Metrics.ok;
  (match m.Service.Metrics.windows with
   | [ w0; w1; w2 ] ->
     Alcotest.(check (pair int int)) "window 0" (1, 1)
       (w0.Service.Metrics.w_started, w0.Service.Metrics.w_ok);
     Alcotest.(check (pair int int)) "window 1" (0, 0)
       (w1.Service.Metrics.w_started, w1.Service.Metrics.w_ok);
     Alcotest.(check (pair int int)) "window 2" (2, 1)
       (w2.Service.Metrics.w_started, w2.Service.Metrics.w_ok)
   | ws -> Alcotest.failf "expected 3 windows, got %d" (List.length ws));
  (* The endpoint probe keys by start time and final endpoint. *)
  Alcotest.(check (pair int int)) "endpoint-1 requests in [20,30)" (2, 1)
    (Service.Metrics.availability_in trace ~endpoints:[ 1 ] ~from_time:20
       ~until_time:30);
  Alcotest.(check (pair int int)) "endpoint-0 requests in [0,10)" (1, 1)
    (Service.Metrics.availability_in trace ~endpoints:[ 0 ] ~from_time:0
       ~until_time:10)

(* ------------------------------------------------------------------ *)
(* The runner over real stacks                                         *)
(* ------------------------------------------------------------------ *)

let ff_setup ?(seed = 11) ?(n = 3) ?(deadline = 150) () =
  { (Harness.Stacks.default ~n ~deadline) with Harness.Stacks.seed = seed }

let ff_spec = { Spec.default with Spec.clients = 3; req_deadline = 20 }

let test_failure_free_all_ok () =
  List.iter
    (fun impl ->
      let o = Service.Runner.run ~setup:(ff_setup ()) ~spec:ff_spec ~impl in
      let r = o.Service.Runner.report in
      Alcotest.(check bool) "did work" true (r.Service.Metrics.requests > 10);
      Alcotest.(check int) "no failures" 0 r.Service.Metrics.failed;
      Alcotest.(check int) "no migrations" 0 r.Service.Metrics.migrations;
      Alcotest.(check int) "no breaker trips" 0 r.Service.Metrics.breaker_opens;
      Alcotest.(check bool) "dedup holds" true o.Service.Runner.dedup_ok)
    [ Harness.Stacks.Algorithm_5; Harness.Stacks.Paxos_baseline ]

let test_run_deterministic () =
  let go () =
    Service.Runner.run ~setup:(ff_setup ()) ~spec:ff_spec
      ~impl:Harness.Stacks.Algorithm_5
  in
  let a = go () in
  let b = go () in
  Alcotest.(check string) "same spec + seed, same digest"
    a.Service.Runner.digest b.Service.Runner.digest;
  let c =
    Service.Runner.run ~setup:(ff_setup ~seed:12 ()) ~spec:ff_spec
      ~impl:Harness.Stacks.Algorithm_5
  in
  Alcotest.(check bool) "different seed, different trace" true
    (a.Service.Runner.digest <> c.Service.Runner.digest)

let test_crash_triggers_migration () =
  let setup =
    { (ff_setup ~deadline:220 ()) with
      Harness.Stacks.pattern = Failures.crash_at (Failures.none ~n:3) 1 60 }
  in
  let spec = { ff_spec with Spec.req_deadline = 10; migrate_after = 2 } in
  let o =
    Service.Runner.run ~setup ~spec ~impl:Harness.Stacks.Algorithm_5
  in
  let r = o.Service.Runner.report in
  Alcotest.(check bool) "the pinned client migrated" true
    (r.Service.Metrics.migrations >= 1);
  Alcotest.(check bool) "work continued after the crash" true
    (r.Service.Metrics.ok > 20);
  Alcotest.(check bool) "dedup holds across migration" true
    o.Service.Runner.dedup_ok;
  let migrated_clients =
    List.filter_map
      (fun (_, _, out) ->
        match out with
        | Service.Wire.Migrated { client; from_endpoint; _ } ->
          Some (client, from_endpoint)
        | _ -> None)
      (Trace.outputs o.Service.Runner.trace)
  in
  Alcotest.(check bool) "migration left the crashed endpoint" true
    (List.exists (fun (_, from) -> from = 1) migrated_clients)

let test_admission_control_sheds () =
  let setup = ff_setup ~n:2 ~deadline:200 () in
  let spec =
    { Spec.default with
      Spec.clients = 6;
      arrival = Spec.Bursty { burst = 5; gap = 12 };
      write_pct = 100;
      req_deadline = 30;
      retries = 2;
      queue_limit = 1;
      breaker_k = 6;
      breaker_cooldown = 40 }
  in
  let o = Service.Runner.run ~setup ~spec ~impl:Harness.Stacks.Algorithm_5 in
  let r = o.Service.Runner.report in
  Alcotest.(check bool) "overload sheds load" true (r.Service.Metrics.sheds > 0);
  Alcotest.(check bool) "shed output recorded" true
    (List.exists
       (fun (_, _, out) ->
         match out with Service.Wire.Shed _ -> true | _ -> false)
       (Trace.outputs o.Service.Runner.trace));
  Alcotest.(check bool) "dedup holds under overload" true
    o.Service.Runner.dedup_ok

(* [Runner.run]'s digest is [Trace.digest], which hashes the text of
   [Trace.text] block by block as it is written; that text writes each
   revision of d_i and of the committed prefix as the previous one's text
   plus what is new.  The text must be the bytes of [Trace_pp_oracle],
   which lays out every revision whole through Format, and the digest
   their MD5: random client populations over both implementations under
   random seeds, at E22's replica setup (a lossy minority partition, a
   majority replica crash, a blockwise Omega under which Paxos delivers
   little) or at a stable one.  No shrinking: every step would rerun the
   service. *)
let prop_trace_text_matches_oracle =
  QCheck.Test.make ~count:16
    ~name:"service runs: trace text equals the Format oracle"
    (QCheck.make
       ~print:(fun (spec, seed, paxos, e22) ->
         Printf.sprintf "%s seed=%d paxos=%b e22=%b" (Spec.to_string spec) seed paxos e22)
       QCheck.Gen.(quad Qgen.service_spec_gen (int_range 0 1000) bool bool))
    (fun (spec, seed, paxos, e22) ->
      let setup =
        if e22 then
          { (Service.Experiment.setup ~seed) with Harness.Stacks.deadline = 300 }
        else ff_setup ~seed ~n:(3 + (seed mod 3)) ~deadline:200 ()
      in
      let impl =
        if paxos then Harness.Stacks.Paxos_baseline else Harness.Stacks.Algorithm_5
      in
      let o = Service.Runner.run ~setup ~spec ~impl in
      let oracle = Trace_pp_oracle.text o.Service.Runner.trace in
      String.equal (Trace.text o.trace) oracle
      && String.equal o.digest (Digest.to_hex (Digest.string oracle)))

let test_runner_rejects_alg_1_over_4 () =
  match
    Service.Runner.run ~setup:(ff_setup ()) ~spec:ff_spec
      ~impl:Harness.Stacks.Algorithm_1_over_4
  with
  | _ -> Alcotest.fail "Algorithm_1_over_4 accepted"
  | exception Invalid_argument _ -> ()

let test_run_builder () =
  let b = base_builder () in
  (match Service.Runner.run_builder b with
   | Ok _ -> Alcotest.fail "builder without a service line ran"
   | Error msg ->
     Alcotest.(check bool) "error mentions the service line" true
       (contains_substring msg "service"));
  let b = { b with Builder.service = Some ff_spec } in
  match Service.Runner.run_builder b with
  | Error msg -> Alcotest.failf "service builder failed: %s" msg
  | Ok o ->
    Alcotest.(check bool) "spec-file run does work" true
      (o.Service.Runner.report.Service.Metrics.requests > 0)

(* ------------------------------------------------------------------ *)
(* E22: the availability experiment and its gates                      *)
(* ------------------------------------------------------------------ *)

let test_e22_gates_pass () =
  let result = Service.Experiment.run () in
  List.iter
    (fun (g : Harness.Record.gate) ->
      Alcotest.(check bool)
        (Printf.sprintf "gate %s: %s %s" g.gate
           (Harness.Record.render g.measured)
           (Harness.Record.render g.bound))
        true g.pass)
    result.Service.Experiment.record.Harness.Record.gates;
  (* The gap comes from degradation: the ETOB side actually downgraded to
     speculative service behind an open breaker. *)
  let er = result.Service.Experiment.etob.s_outcome.Service.Runner.report in
  Alcotest.(check bool) "etob breaker opened" true
    (er.Service.Metrics.breaker_opens > 0);
  Alcotest.(check bool) "etob served weak successes" true
    (er.Service.Metrics.weak_ok > 0);
  let pr = result.Service.Experiment.paxos.s_outcome.Service.Runner.report in
  Alcotest.(check bool) "paxos side completed requests" true
    (pr.Service.Metrics.requests > 0)

(* ------------------------------------------------------------------ *)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest
      [ prop_spec_roundtrip; prop_generated_specs_valid ]
  in
  Alcotest.run "service"
    [ ("spec",
       [ Alcotest.test_case "default roundtrips" `Quick test_spec_default_roundtrip;
         Alcotest.test_case "field errors are named" `Quick test_spec_field_errors;
         Alcotest.test_case "sampling is deterministic" `Quick
           test_sampled_specs_deterministic ]
       @ qc);
      ("builder",
       [ Alcotest.test_case "service line roundtrips" `Quick
           test_builder_service_roundtrip;
         Alcotest.test_case "parse errors name the line" `Quick
           test_builder_service_error_names_line ]);
      ("dedup",
       [ Alcotest.test_case "filter keeps first occurrences" `Quick
           test_dedup_filter;
         Alcotest.test_case "machine matches filtered replay" `Quick
           test_dedup_machine_matches_replay ]);
      ("metrics",
       [ Alcotest.test_case "windows and endpoint probe" `Quick
           test_metrics_windows_and_probe ]);
      ("runner",
       [ Alcotest.test_case "failure-free: everything succeeds" `Quick
           test_failure_free_all_ok;
         Alcotest.test_case "deterministic digest" `Quick test_run_deterministic;
         Alcotest.test_case "crash triggers migration" `Quick
           test_crash_triggers_migration;
         Alcotest.test_case "admission control sheds" `Quick
           test_admission_control_sheds;
         Alcotest.test_case "rejects alg 1/4" `Quick
           test_runner_rejects_alg_1_over_4;
         Alcotest.test_case "runs from a spec file" `Quick test_run_builder;
         QCheck_alcotest.to_alcotest prop_trace_text_matches_oracle ]);
      ("experiment",
       [ Alcotest.test_case "E22 gates pass" `Quick test_e22_gates_pass ]);
    ]
