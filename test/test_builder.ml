(* The builder refactor's contract, tested three ways:

   - differential: running a declarative builder is byte-identical to the
     hand-wired [Stacks.run_*] calls — on the committed golden traces, on
     the anti-entropy and crash-recovery stacks and under an elected
     Omega — and a caller's own sink leaves the outcome unchanged;
   - text form: [of_lines (to_lines b) = b] over generated builders, and
     a committed finding replays through [Builder.of_string] to its
     recorded digest;
   - parse errors: every adversity spec shape rejects malformed lines
     with an error naming the offence, and so does every clause outside
     the spec language; a builder assembled in code gets the same value
     bounds from [Builder.validate];
   - templates: [Builder.explorable] rejects a spec by the clause the
     plan generator cannot be fair to. *)

open Simulator
module Builder = Harness.Builder
module Adversity = Harness.Adversity
module Stacks = Harness.Stacks

let run_digest b =
  let o = Builder.run ~digest:true b in
  o.Builder.digest

(* ------------------------------------------------------------------ *)
(* Differential: builder vs the raw stack wiring                       *)
(* ------------------------------------------------------------------ *)

(* Same construction as test_harness's golden-trace test, declaratively:
   the builder path must reproduce the committed pre-refactor trace byte
   for byte. *)
let test_golden_stable_via_builder () =
  let b =
    { (Builder.create ~n:3 ~deadline:120
         ~delay:(Builder.Uniform { min_d = 1; max_d = 4 })
         (Builder.Etob Stacks.Algorithm_5))
      with
      Builder.workload = Builder.Posts { count = 6; from_time = 8; every = 5 }
    }
  in
  let o = Builder.run b in
  let trace = Option.get o.Builder.trace in
  let got = Format.asprintf "%a" Trace.pp trace in
  let golden =
    In_channel.with_open_bin "golden_stable_trace.txt" In_channel.input_all
  in
  Alcotest.(check bool) "golden stable trace byte-identical" true (got = golden)

(* The crash golden, with the crash supplied as an adversity-plan clause
   rather than a hand-built failure pattern. *)
let test_golden_crash_via_builder () =
  let b =
    { (Builder.create ~seed:13 ~n:4 ~deadline:160
         ~delay:(Builder.Uniform { min_d = 1; max_d = 4 })
         (Builder.Etob Stacks.Algorithm_5))
      with
      Builder.workload = Builder.Posts { count = 8; from_time = 6; every = 6 };
      plan = [ Adversity.Crash { proc = 3; at = 40 } ]
    }
  in
  let o = Builder.run b in
  let trace = Option.get o.Builder.trace in
  let got = Format.asprintf "%a" Trace.pp trace in
  let golden =
    In_channel.with_open_bin "golden_crash_trace.txt" In_channel.input_all
  in
  Alcotest.(check bool) "golden crash trace byte-identical" true (got = golden)

(* The Paxos golden.  The initial leader p0 crashes at 15 while Omega
   flaps, so each later leader re-proposes the slots its promise quorum
   accepted.  The spike on link p1 -> p3 delivers p1's requests to p3
   after their slots are chosen, and p3 leads later: without it, 1-4 tick
   links almost never deliver a request that late.  The duplicate window
   repeats requests and votes. *)
let test_golden_paxos_via_builder () =
  let b =
    { (Builder.create ~n:5 ~deadline:240
         ~delay:(Builder.Uniform { min_d = 1; max_d = 4 })
         (Builder.Etob Stacks.Paxos_baseline))
      with
      Builder.workload = Builder.Posts { count = 10; from_time = 6; every = 6 };
      plan =
        Adversity.make
          [ Adversity.Crash { proc = 0; at = 15 };
            Adversity.Delay_spike
              { link = Some (1, 3); from_time = 20; until_time = 60; factor = 8 };
            Adversity.Duplicate { from_time = 20; until_time = 80; copies = 1 };
            Adversity.Omega_flap { until_time = 100; period = 20 } ]
    }
  in
  let o = Builder.run b in
  let trace = Option.get o.Builder.trace in
  let got = Format.asprintf "%a" Trace.pp trace in
  let golden =
    In_channel.with_open_bin "golden_paxos_trace.txt" In_channel.input_all
  in
  Alcotest.(check bool) "golden paxos trace byte-identical" true (got = golden)

(* Anti-entropy stack under a lossy partition: [Builder.run] on [Etob_ae]
   vs calling [Stacks.run_etob_ae] on the applied setup directly. *)
let test_ae_differential () =
  let plan =
    [ Adversity.Lossy_partition { left = [ 0; 1 ]; from_time = 20; until_time = 80 } ]
  in
  let decl =
    { (Builder.create ~seed:7 ~n:4 ~deadline:200
         ~delay:(Builder.Uniform { min_d = 1; max_d = 3 })
         Builder.Etob_ae)
      with
      Builder.workload = Builder.Posts { count = 8; from_time = 8; every = 6 };
      plan
    }
  in
  let direct =
    let setup =
      Adversity.apply plan
        { (Stacks.default ~n:4 ~deadline:200) with
          seed = 7;
          delay = Net.uniform ~min:1 ~max:3 }
    in
    let inputs = Stacks.spread_posts ~n:4 ~count:8 ~from_time:8 ~every:6 in
    let trace, _ = Stacks.run_etob_ae ~inputs setup in
    Trace.digest trace
  in
  Alcotest.(check string) "ae stack digest" direct (run_digest decl)

(* Crash-recovery stack under a downtime window: [Builder.run] on
   [Recoverable] vs [Stacks.run_recoverable] directly. *)
let test_recoverable_differential () =
  let plan =
    [ Adversity.Crash_recover { proc = 1; at = 50; recover_at = 120 } ]
  in
  let decl =
    { (Builder.create ~seed:3 ~n:4 ~deadline:300
         ~delay:(Builder.Uniform { min_d = 1; max_d = 3 })
         (Builder.Recoverable { ae = false }))
      with
      Builder.workload = Builder.Posts { count = 12; from_time = 8; every = 20 };
      plan
    }
  in
  let direct =
    let setup =
      Adversity.apply plan
        { (Stacks.default ~n:4 ~deadline:300) with
          seed = 3;
          delay = Net.uniform ~min:1 ~max:3 }
    in
    let inputs = Stacks.spread_posts ~n:4 ~count:12 ~from_time:8 ~every:20 in
    let trace, _, _ = Stacks.run_recoverable ~inputs setup in
    Trace.digest trace
  in
  Alcotest.(check string) "recoverable stack digest" direct (run_digest decl)

(* The builder's [omega] clause: an elected-leader builder run matches
   [Stacks.run_etob] on the same hand-built setup. *)
let test_omega_clause_differential () =
  let decl =
    { (Builder.create ~seed:11 ~n:4 ~deadline:200
         ~delay:(Builder.Uniform { min_d = 1; max_d = 5 })
         (Builder.Etob Stacks.Algorithm_5))
      with
      Builder.workload = Builder.Posts { count = 8; from_time = 5; every = 4 };
      omega = Some (Stacks.Elected { initial_timeout = 5 })
    }
  in
  let direct =
    let setup =
      { (Stacks.default ~n:4 ~deadline:200) with
        seed = 11;
        delay = Net.uniform ~min:1 ~max:5;
        omega = Stacks.Elected { initial_timeout = 5 } }
    in
    let inputs = Stacks.spread_posts ~n:4 ~count:8 ~from_time:5 ~every:4 in
    Trace.digest (Stacks.run_etob ~inputs setup Stacks.Algorithm_5)
  in
  Alcotest.(check string) "omega clause digest" direct (run_digest decl)

(* ------------------------------------------------------------------ *)
(* Trace text against the Format oracle                                *)
(* ------------------------------------------------------------------ *)

(* [Trace.text] writes each revision of d_i as the previous revision's
   text plus what is new; [Trace_pp_oracle] lays out every revision whole
   through Format.  [Trace.digest], which hashes the text block by block
   as it is written, must be the MD5 of the oracle's text.  Every builder
   stack runs here, faithful or under any seeded mutant of its layers
   (Algorithm 5, anti-entropy, recovery), over unclamped plans; the
   recoverable stacks get recovery plans, under which the
   skip-log-replay mutant reuses ids with other deps. *)
let stack_run_gen =
  let open QCheck.Gen in
  let maybe all = oneofl (None :: List.map Option.some all) in
  let* stack =
    oneofl
      [ Builder.Etob Stacks.Algorithm_5; Builder.Etob Stacks.Paxos_baseline;
        Builder.Etob Stacks.Algorithm_1_over_4; Builder.Etob_ae;
        Builder.Recoverable { ae = false }; Builder.Recoverable { ae = true };
        Builder.Gossip ]
  in
  let alg5, ae, recovery =
    match stack with
    | Builder.Etob Stacks.Algorithm_5 -> (true, false, false)
    | Builder.Etob_ae -> (true, true, false)
    | Builder.Recoverable { ae } -> (true, ae, true)
    | Builder.Etob _ | Builder.Gossip -> (false, false, false)
  in
  let* n = int_range 3 5 and* seed = int_range 0 10_000 in
  let deadline = 240 in
  let* plan =
    if recovery then Builder.recovery_plan_gen ~n ~deadline
    else Builder.plan_gen ~n ~deadline
  in
  let* mutation = if alg5 then maybe Ec_core.Etob_omega.all_mutations else return None in
  let* ae_mutation = if ae then maybe Ec_core.Anti_entropy.all_mutations else return None in
  let* rmutation = if recovery then maybe Ec_core.Recoverable.all_mutations else return None in
  return
    { (Builder.create ~seed ~n ~deadline
         ~delay:(Builder.Uniform { min_d = 1; max_d = 3 }) stack)
      with
      Builder.workload = Builder.Auto_posts { count = 12; stretch = recovery };
      plan; mutation; ae_mutation; rmutation }

let prop_trace_text_matches_oracle =
  QCheck.Test.make ~name:"trace: text equals the Format oracle on builder runs"
    ~count:150
    (QCheck.make ~print:Builder.to_string stack_run_gen)
    (fun b ->
       match (Builder.run ~catch:true b).Builder.trace with
       | None -> QCheck.assume_fail ()
       | Some trace ->
         let oracle = Trace_pp_oracle.text trace in
         String.equal (Trace.text trace) oracle
         && String.equal (Trace.digest trace) (Digest.to_hex (Digest.string oracle)))

(* The checkers read each revision of d_i as its delta; the oracle
   (Properties_oracle) reads every revision whole.  On every builder
   stack, faithful or under any Algorithm 5, anti-entropy and recovery
   mutant, the ETOB report (every verdict's messages, both taus), the
   list readers and the watchdog's verdicts must be equal.  The watchdog
   is read at the builder's own bound and at bound 0 from time 0, where
   every process that revised is a laggard. *)
let prop_checkers_match_oracle =
  QCheck.Test.make ~name:"checkers: delta reports equal the whole-revision oracle's"
    ~count:300
    (QCheck.make ~print:Builder.to_string stack_run_gen)
    (fun b ->
       match (Builder.run ~catch:true b).Builder.trace with
       | None -> QCheck.assume_fail ()
       | Some trace ->
         let pattern = (Builder.setup_of b).Stacks.pattern in
         let run = Ec_core.Properties.etob_run_of_trace pattern trace
         and whole = Properties_oracle.etob_run_of_trace pattern trace in
         let report = Ec_core.Properties.etob_report run
         and expected = Properties_oracle.etob_report whole in
         if report <> expected then
           QCheck.Test.fail_reportf "report:@.%a@.oracle:@.%a"
             Ec_core.Properties.pp_etob_report report
             Ec_core.Properties.pp_etob_report expected;
         let bounds = [ (Builder.watchdog_settle b, Builder.watchdog_bound b); (0, 0) ] in
         let procs = Types.all_procs b.Builder.base.Builder.n in
         let delivery_times run broadcasts stable_delivery_time =
           List.map (fun (_, _, m) -> stable_delivery_time run m) broadcasts
         in
         List.map
           (fun (settle, bound) -> Harness.Watchdog.check ~settle ~bound run)
           bounds
         = List.map
             (fun (settle, bound) ->
                Properties_oracle.Watchdog.check ~settle ~bound whole)
             bounds
         && List.for_all
              (fun p ->
                 Ec_core.Properties.revisions run p = Properties_oracle.revisions whole p)
              procs
         && delivery_times run (Ec_core.Properties.broadcasts run)
              Ec_core.Properties.stable_delivery_time
            = delivery_times whole (Properties_oracle.broadcasts whole)
                Properties_oracle.stable_delivery_time)

(* The commit-prefix checkers against the oracle on Algorithm 5 with the
   Section 7 commit indication, under random plans. *)
let prop_commit_checkers_match_oracle =
  let deadline = 240 in
  QCheck.Test.make ~name:"checkers: commit checkers equal the whole-revision oracle's"
    ~count:60
    (QCheck.make
       ~print:(fun (seed, n, plan) ->
           Format.asprintf "seed=%d n=%d plan=%a" seed n Adversity.pp plan)
       QCheck.Gen.(
         let* seed = int_range 0 10_000 in
         let* n = int_range 3 5 in
         let* plan = Builder.plan_gen ~n ~deadline in
         return (seed, n, plan)))
    (fun (seed, n, plan) ->
       let setup =
         Adversity.apply plan
           { (Stacks.default ~n ~deadline) with seed; delay = Net.uniform ~min:1 ~max:3 }
       in
       let inputs = Stacks.spread_posts ~n ~count:12 ~from_time:5 ~every:3 in
       let trace = Stacks.run_etob_with_commits ~inputs setup in
       let pattern = setup.Stacks.pattern in
       let module P = Ec_core.Properties in
       let module O = Properties_oracle in
       let commits = P.commit_run_of_trace pattern trace
       and etob = P.etob_run_of_trace pattern trace in
       let whole_commits = O.commit_run_of_trace pattern trace
       and whole_etob = O.etob_run_of_trace pattern trace in
       let msgs = List.map (fun (_, _, m) -> m) (P.broadcasts etob) in
       P.check_commit_stability commits = O.check_commit_stability whole_commits
       && P.check_commit_consistent commits etob
          = O.check_commit_consistent whole_commits whole_etob
       && List.map (P.commit_time commits) msgs = List.map (O.commit_time whole_commits) msgs
       && List.for_all
            (fun p ->
               P.final_committed commits p = O.final_committed whole_commits p
               && P.committed_count commits p = O.committed_count whole_commits p)
            (Types.all_procs n))

(* One text per entry.  A jsonl and a binary sink teed in through
   [Builder.sink] carry, for each input and output, the text its entry
   has in [Trace.text] after the "[time] p <- " or " -> " prefix, and
   [Trace.pp_entry] prints exactly that entry's lines. *)
let prop_sink_text_is_trace_text =
  QCheck.Test.make ~name:"trace: each sink event carries its entry's text"
    ~count:40
    (QCheck.make ~print:Builder.to_string stack_run_gen)
    (fun b ->
       let lines = ref [] and bin = Buffer.create 4096 in
       Buffer.add_string bin Persist.Frame.header;
       let sink =
         Sink.tee
           (Sink.jsonl ~emit:(fun l -> lines := l :: !lines))
           (Sink.binary ~emit:(Buffer.add_string bin))
       in
       match (Builder.run ~catch:true { b with Builder.sink = Some sink }).Builder.trace with
       | None -> QCheck.assume_fail ()
       | Some trace ->
         let events =
           match Persist.Frame.decode (Buffer.contents bin) with
           | Ok items -> Persist.Frame.events items
           | Error _ -> QCheck.Test.fail_report "binary stream does not decode"
         in
         let texts =
           List.filter_map
             (function
               | Persist.Frame.Input { t; proc; v } ->
                 Some (Printf.sprintf "[%4d] p%d <- %s" t proc v)
               | Persist.Frame.Output { t; proc; v } ->
                 Some (Printf.sprintf "[%4d] p%d -> %s" t proc v)
               | _ -> None)
             events
         in
         let counters =
           Printf.sprintf "\n(sent=%d delivered=%d dropped=%d steps=%d end=%d)"
             (Trace.sent trace) (Trace.delivered trace) (Trace.dropped trace)
             (Trace.steps trace) (Trace.last_time trace)
         in
         List.equal String.equal (List.rev !lines)
           (List.map Persist.Frame.event_to_jsonl events)
         && List.equal String.equal texts
              (List.map (Format.asprintf "%a" Trace.pp_entry) (Trace.entries trace))
         && String.equal (String.concat "\n" texts ^ counters) (Trace.text trace))

(* ------------------------------------------------------------------ *)
(* Text form                                                           *)
(* ------------------------------------------------------------------ *)

let prop_spec_roundtrip =
  QCheck.Test.make ~name:"builder: of_lines (to_lines b) = b" ~count:300
    Builder.arbitrary (fun b ->
        match Builder.of_lines (Builder.to_lines b) with
        | Ok b' -> b' = b
        | Error msg -> QCheck.Test.fail_reportf "parse failed: %s" msg)

(* A committed finding (the skip-dependency-wait mutant, first recorded by
   the pre-builder explorer) replays through the builder path to its
   recorded digest and still shows the violation. *)
let finding_fixture () =
  In_channel.with_open_text "fixtures/skip_dep_finding.spec"
    In_channel.input_all

let test_finding_fixture_replays () =
  let content = finding_fixture () in
  match Builder.of_string content with
  | Error msg -> Alcotest.failf "fixture parse: %s" msg
  | Ok b ->
    let o = Builder.run ~digest:true b in
    Alcotest.(check bool) "violation reproduced" true (o.Builder.violations <> []);
    (match Builder.recorded_digest content with
     | None -> Alcotest.fail "fixture lost its digest header"
     | Some d -> Alcotest.(check string) "digest reproduced" d o.Builder.digest)

(* The fixture is exactly what the finding writer records for its own
   replay: parse, run and [finding_text] give it back byte for byte. *)
let test_finding_fixture_fixed_point () =
  let content = finding_fixture () in
  match Builder.replay content with
  | Error msg -> Alcotest.failf "replay: %s" msg
  | Ok o ->
    Alcotest.(check string) "finding_text of the replay" content
      (Builder.finding_text o)

(* A caller's sink observes the run without emptying its outcome: the
   committed finding, run with [Sink.null] as the builder's sink, still
   shows the plain run's violations and digest. *)
let test_caller_sink_keeps_outcome () =
  match Builder.of_string (finding_fixture ()) with
  | Error msg -> Alcotest.failf "fixture parse: %s" msg
  | Ok b ->
    let plain = Builder.run ~digest:true b in
    let sunk =
      Builder.run ~digest:true { b with Builder.sink = Some Sink.null }
    in
    Alcotest.(check bool) "plain run violates" true
      (plain.Builder.violations <> []);
    Alcotest.(check (list string)) "violations" plain.Builder.violations
      sunk.Builder.violations;
    Alcotest.(check string) "digest" plain.Builder.digest sunk.Builder.digest

(* New-format spec files: a handwritten spec parses, runs, serializes
   back to an equal builder (normalization is idempotent). *)
let test_spec_text_idempotent () =
  let text =
    String.concat "\n"
      [ "ecsim-spec v1"; "stack alg5+ae"; "n 4"; "seed 5"; "deadline 200";
        "timer-period 2"; "delay uniform min=1 max=3";
        "workload posts count=8 from=8 every=6"; "check etob tau=auto";
        "check watchdog auto"; "plan 2";
        "lossy left=0,1 from=20 until=80"; "crash p=3 at=30"; "end" ]
  in
  match Builder.of_string text with
  | Error msg -> Alcotest.failf "spec parse: %s" msg
  | Ok b ->
    (* The plan was normalized on parse: the crash sorts before the lossy
       window. *)
    (match b.Builder.plan with
     | [ Adversity.Crash _; Adversity.Lossy_partition _ ] -> ()
     | _ -> Alcotest.fail "plan not normalized on parse");
    (match Builder.of_lines (Builder.to_lines b) with
     | Ok b' -> Alcotest.(check bool) "idempotent" true (b = b')
     | Error msg -> Alcotest.failf "reparse: %s" msg);
    let o = Builder.run ~digest:true b in
    Alcotest.(check bool) "spec runs" true (o.Builder.digest <> "")

(* ------------------------------------------------------------------ *)
(* of_line rejects malformed lines, one case per spec shape            *)
(* ------------------------------------------------------------------ *)

let test_of_line_errors () =
  let cases =
    [ ("crash", "crash p=zzz at=3");            (* non-integer field *)
      ("partition", "partition left=0 from=5"); (* missing until *)
      ("lossy", "lossy left=0 from=a until=9");
      ("oneway", "oneway left=0,1 until=9");    (* missing from *)
      ("flapping", "flapping left=0 from=1 until=9 period=0"); (* period<1 *)
      ("spike", "spike link=1>x from=1 until=9 factor=3"); (* bad link *)
      ("drop", "drop from=1 until=9");          (* missing pct *)
      ("dup", "dup from=1 until=9 copies=two");
      ("flap", "flap until=9");                 (* missing period *)
      ("crashrec", "crashrec p=1 at=50 until=40"); (* inverted window *)
      ("disk", "disk p=1 kind=gremlins");       (* unknown fault kind *)
      ("unknown kind", "meteor p=1 at=3");
      ("bare token", "crash p=1 at=30 junk");
      ("unknown key", "partition left=0 from=20 until=40 untill=90");
      ("repeated key", "drop from=1 until=9 pct=5 pct=6");
      ("non-integer id", "partition left=0,x from=20 until=40") ]
  in
  List.iter
    (fun (shape, line) ->
       match Adversity.of_line line with
       | Ok _ -> Alcotest.failf "%s: malformed line %S parsed" shape line
       | Error msg ->
         Alcotest.(check bool)
           (shape ^ ": error message is not empty") true (msg <> ""))
    cases

let contains_substring s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* A builder assembled in code, as ecsim assembles one from its flags,
   gets the bounds spec text gets; with no line to name, the error names
   the clause as spec text writes it. *)
let test_validate_names_clause () =
  let b = Builder.create ~n:4 ~deadline:200 (Builder.Etob Stacks.Algorithm_5) in
  (match Builder.validate b with
   | Ok _ -> ()
   | Error msg -> Alcotest.failf "valid builder rejected: %s" msg);
  List.iter
    (fun (b, clause) ->
       match Builder.validate b with
       | Ok _ -> Alcotest.failf "%s accepted" clause
       | Error msg ->
         if not (contains_substring msg (clause ^ ":")) then
           Alcotest.failf "error %S does not name %s" msg clause)
    [ ({ b with base = { b.base with n = 1 } }, "n 1");
      ({ b with base = { b.base with deadline = 0 } }, "deadline 0");
      ({ b with base = { b.base with timer_period = 0 } }, "timer-period 0");
      ( { b with workload = Builder.Auto_posts { count = -3; stretch = false } },
        "workload auto count=-3 stretch=off" );
      ( { b with plan = [ Adversity.Crash { proc = 9; at = 30 } ] },
        "crash p=9 at=30" ) ]

(* Whole-spec parse errors name the offending line number: syntax errors,
   typos that would otherwise parse as a default, and values that parse
   but that the run's constructors reject.  Each case replaces one line of
   a valid spec text. *)
let test_of_lines_names_line () =
  let spec =
    [ "ecsim-spec v1"; "stack alg5"; "n 4"; "seed 5"; "deadline 200";
      "timer-period 2"; "delay constant 1"; "omega oracle stable=0 pre=self";
      "workload none"; "plan 1"; "crash p=1 at=30"; "end" ]
  in
  let parse lines = Builder.of_string (String.concat "\n" lines) in
  let names_line lineno lines =
    match parse lines with
    | Ok _ -> Alcotest.failf "%S parsed" (List.nth lines (lineno - 1))
    | Error msg ->
      let expected = Printf.sprintf "line %d:" lineno in
      if not (contains_substring msg expected) then
        Alcotest.failf "error %S does not name %s" msg expected
  in
  (match parse spec with
   | Ok _ -> ()
   | Error msg -> Alcotest.failf "base text rejected: %s" msg);
  (* Five typos at once: the first one, on line 7, is reported. *)
  names_line 7
    [ "ecsim-spec v1"; "stack alg5"; "n 4"; "seed 5"; "deadline 200";
      "timer-period 2"; "delay uniform min=1 max=3 mni=9";
      "workload auto count=6 strech=on"; "check etob tua=0"; "plan 2";
      "crash p=1 at=30 junk";
      "partition left=0,x from=20 until=40 untill=90"; "end" ];
  let cases =
    [ (11, "drop from=1 until=9");  (* missing pct *)
      (3, "n 1");
      (6, "timer-period 0");
      (5, "deadline 0");
      (7, "delay constant 0");
      (7, "delay uniform min=5 max=1");
      (9, "workload auto count=-3");
      (9, "workload posts count=4 from=-5 every=2");
      (11, "crash p=9 at=30");
      (11, "crashrec p=9 at=30 until=40");
      (11, "spike link=all from=1 until=9 factor=0");
      (11, "drop from=1 until=9 pct=150");
      (11, "dup from=1 until=9 copies=-1");
      (11, "flap until=9 period=0");
      (8, "omega oracle stable=0 pre=fixed:9");
      (8, "omega elected timeout=0");
      (7, "delay uniform min=1 max=3 mni=9");
      (9, "workload auto count=6 strech=on");
      (8, "check etob tua=0");
      (11, "crash p=1 at=30 junk");
      (11, "partition left=0,x from=20 until=40 untill=90");
      (11, "partition left=0,x from=20 until=40");
      (7, "delay uniform min=1 max=3 min=2");
      (8, "omega oracle stable=0 pre=self now");
      (* Clauses outside the spec language: stacks that only
         [Harness.Stacks] runs (EC family, commit indications), weighted
         and explicit workloads, adversity boosts, an EC instance
         horizon. *)
      (2, "stack ec");
      (2, "stack alg5+commits");
      (9, "workload weighted count=4 from=8 every=2 jitter=0 mix=a:1");
      (9, "workload explicit");
      (8, "boost drop-while-partitioned factor=2");
      (8, "max-instance 3") ]
  in
  List.iter
    (fun (lineno, line) ->
       names_line lineno
         (List.mapi (fun i l -> if i + 1 = lineno then line else l) spec))
    cases

(* ------------------------------------------------------------------ *)
(* Templates: what exploration accepts                                 *)
(* ------------------------------------------------------------------ *)

(* A spec read as an exploration template is accepted as written or
   rejected by the clause the plan generator cannot be fair to. *)
let test_explorable_names_clause () =
  let header =
    [ "ecsim-spec v1"; "n 4"; "seed 1"; "deadline 240"; "timer-period 2";
      "delay uniform min=1 max=3" ]
  and tail = [ "check etob tau=auto"; "plan 0"; "end" ] in
  let auto = "workload auto count=12 stretch=off" in
  let explorable lines =
    match Builder.of_string (String.concat "\n" (header @ lines @ tail)) with
    | Error msg -> Alcotest.failf "spec parse: %s" msg
    | Ok b -> Builder.explorable b
  in
  (match explorable [ "stack alg5"; auto ] with
   | Ok _ -> ()
   | Error msg -> Alcotest.failf "template rejected: %s" msg);
  List.iter
    (fun (clause, lines) ->
       match explorable lines with
       | Ok _ -> Alcotest.failf "spec with its %s explored" clause
       | Error msg ->
         if not (contains_substring msg clause) then
           Alcotest.failf "error %S does not name %S" msg clause)
    [ ("omega clause",
       [ "stack alg5"; "omega oracle stable=0 pre=self"; auto ]);
      ("service clause", [ "stack alg5"; auto; "service clients=2" ]);
      ("workload", [ "stack alg5"; "workload posts count=8 from=8 every=6" ]);
      ("stack gossip", [ "stack gossip"; auto ]) ]

(* ------------------------------------------------------------------ *)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "builder"
    [ ("differential",
       [ Alcotest.test_case "golden stable via builder" `Quick
           test_golden_stable_via_builder;
         Alcotest.test_case "golden crash via builder" `Quick
           test_golden_crash_via_builder;
         Alcotest.test_case "golden paxos via builder" `Quick
           test_golden_paxos_via_builder;
         Alcotest.test_case "ae stack" `Quick test_ae_differential;
         Alcotest.test_case "recoverable stack" `Quick
           test_recoverable_differential;
         Alcotest.test_case "scenario facade" `Quick
           test_omega_clause_differential;
         Alcotest.test_case "caller sink keeps the outcome" `Quick
           test_caller_sink_keeps_outcome ]
       @ qc [ prop_trace_text_matches_oracle; prop_sink_text_is_trace_text ]);
      ("checkers",
       qc [ prop_checkers_match_oracle; prop_commit_checkers_match_oracle ]);
      ("text form",
       [ Alcotest.test_case "finding fixture replays" `Quick
           test_finding_fixture_replays;
         Alcotest.test_case "finding fixture is a fixed point" `Quick
           test_finding_fixture_fixed_point;
         Alcotest.test_case "spec text idempotent" `Quick
           test_spec_text_idempotent ]
       @ qc [ prop_spec_roundtrip ]);
      ("parse errors",
       [ Alcotest.test_case "of_line rejects each shape" `Quick
           test_of_line_errors;
         Alcotest.test_case "of_lines names the line" `Quick
           test_of_lines_names_line;
         Alcotest.test_case "validate names the clause" `Quick
           test_validate_names_clause ]);
      ("templates",
       [ Alcotest.test_case "explorable names the clause" `Quick
           test_explorable_names_clause ]) ]
