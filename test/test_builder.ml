(* The builder refactor's contract, tested three ways:

   - differential: running a declarative builder is byte-identical to the
     hand-wired [Stacks.run_*] calls — on the committed golden traces, on
     the anti-entropy and crash-recovery stacks and under an elected
     Omega;
   - text form: [of_lines (to_lines b) = b] over generated builders, and
     a committed pre-refactor repro file replays through
     [Builder.of_string] to its recorded digest;
   - parse errors: every adversity spec shape rejects malformed lines
     with an error naming the offence. *)

open Simulator
module Builder = Harness.Builder
module Adversity = Harness.Adversity
module Stacks = Harness.Stacks

let digest_of_trace trace =
  Digest.to_hex (Digest.string (Format.asprintf "%a" Trace.pp trace))

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
    digest_of_trace trace
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
    digest_of_trace trace
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
    digest_of_trace (Stacks.run_etob ~inputs setup Stacks.Algorithm_5)
  in
  Alcotest.(check string) "omega clause digest" direct (run_digest decl)

(* ------------------------------------------------------------------ *)
(* Text form                                                           *)
(* ------------------------------------------------------------------ *)

let prop_spec_roundtrip =
  QCheck.Test.make ~name:"builder: of_lines (to_lines b) = b" ~count:300
    Builder.arbitrary (fun b ->
        match Builder.of_lines (Builder.to_lines b) with
        | Ok b' -> b' = b
        | Error msg -> QCheck.Test.fail_reportf "parse failed: %s" msg)

(* A committed pre-refactor explorer repro file replays through the
   builder path to its recorded digest and still shows the violation. *)
let test_legacy_repro_via_builder () =
  let content =
    In_channel.with_open_text "fixtures/legacy_skip_dep.repro"
      In_channel.input_all
  in
  match Builder.of_string content with
  | Error msg -> Alcotest.failf "legacy parse: %s" msg
  | Ok b ->
    let o = Builder.run ~digest:true b in
    Alcotest.(check bool) "violation reproduced" true (o.Builder.violations <> []);
    (match Builder.recorded_digest content with
     | None -> Alcotest.fail "fixture lost its digest header"
     | Some d -> Alcotest.(check string) "digest reproduced" d o.Builder.digest)

(* The legacy fixture and its spec re-serialization mean the same run:
   both replay through [Builder.replay] to the recorded digest. *)
let test_legacy_repro_two_readers_agree () =
  let content =
    In_channel.with_open_text "fixtures/legacy_skip_dep.repro"
      In_channel.input_all
  in
  let replayed text =
    match Builder.replay text with
    | Ok o -> o.Builder.digest
    | Error msg -> Alcotest.failf "replay: %s" msg
  in
  match Builder.of_string content with
  | Error msg -> Alcotest.failf "legacy parse: %s" msg
  | Ok b ->
    let spec =
      Builder.to_string
        ?digest:(Builder.recorded_digest content)
        ~violations:[ "recorded" ] b
    in
    Alcotest.(check string) "same digest both ways" (replayed content)
      (replayed spec)

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
      ("unknown kind", "meteor p=1 at=3") ]
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

(* Whole-spec parse errors name the offending line number: syntax errors,
   and values that parse but that the run's constructors reject.  Each
   case replaces one line of a valid spec (or legacy repro) text. *)
let test_of_lines_names_line () =
  let spec =
    [ "ecsim-spec v1"; "stack alg5"; "n 4"; "seed 5"; "deadline 200";
      "timer-period 2"; "delay constant 1"; "omega oracle stable=0 pre=self";
      "workload none"; "plan 1"; "crash p=1 at=30"; "end" ]
  and legacy =
    [ "ecsim-explore-repro v1"; "impl alg5"; "n 4"; "seed 5"; "deadline 200";
      "timer-period 2"; "posts 12"; "base-min 1"; "base-max 3"; "plan 1";
      "crash p=1 at=30"; "end" ]
  in
  let parse lines = Builder.of_string (String.concat "\n" lines) in
  List.iter
    (fun (name, lines) ->
       match parse lines with
       | Ok _ -> ()
       | Error msg -> Alcotest.failf "%s base text rejected: %s" name msg)
    [ ("spec", spec); ("legacy", legacy) ];
  let cases =
    [ (spec, 11, "drop from=1 until=9");  (* missing pct *)
      (spec, 3, "n 1");
      (spec, 6, "timer-period 0");
      (spec, 5, "deadline 0");
      (spec, 7, "delay constant 0");
      (spec, 7, "delay uniform min=5 max=1");
      (spec, 9, "workload auto count=-3");
      (spec, 9, "workload posts count=4 from=-5 every=2");
      (spec, 11, "crash p=9 at=30");
      (spec, 11, "crashrec p=9 at=30 until=40");
      (spec, 11, "spike link=all from=1 until=9 factor=0");
      (spec, 11, "drop from=1 until=9 pct=150");
      (spec, 11, "dup from=1 until=9 copies=-1");
      (spec, 11, "flap until=9 period=0");
      (spec, 8, "omega oracle stable=0 pre=fixed:9");
      (spec, 8, "omega elected timeout=0");
      (legacy, 3, "n 1");
      (legacy, 6, "timer-period 0");
      (legacy, 7, "posts -3");
      (legacy, 9, "base-max 0");
      (legacy, 11, "crash p=9 at=30") ]
  in
  List.iter
    (fun (lines, lineno, line) ->
       let lines =
         List.mapi (fun i l -> if i + 1 = lineno then line else l) lines
       in
       match parse lines with
       | Ok _ -> Alcotest.failf "%S parsed" line
       | Error msg ->
         let expected = Printf.sprintf "line %d:" lineno in
         if not (contains_substring msg expected) then
           Alcotest.failf "%S: error %S does not name %s" line msg expected)
    cases

(* ------------------------------------------------------------------ *)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "builder"
    [ ("differential",
       [ Alcotest.test_case "golden stable via builder" `Quick
           test_golden_stable_via_builder;
         Alcotest.test_case "golden crash via builder" `Quick
           test_golden_crash_via_builder;
         Alcotest.test_case "ae stack" `Quick test_ae_differential;
         Alcotest.test_case "recoverable stack" `Quick
           test_recoverable_differential;
         Alcotest.test_case "scenario facade" `Quick
           test_omega_clause_differential ]);
      ("text form",
       [ Alcotest.test_case "legacy repro via builder" `Quick
           test_legacy_repro_via_builder;
         Alcotest.test_case "legacy repro: two readers agree" `Quick
           test_legacy_repro_two_readers_agree;
         Alcotest.test_case "spec text idempotent" `Quick
           test_spec_text_idempotent ]
       @ qc [ prop_spec_roundtrip ]);
      ("parse errors",
       [ Alcotest.test_case "of_line rejects each shape" `Quick
           test_of_line_errors;
         Alcotest.test_case "of_lines names the line" `Quick
           test_of_lines_names_line ]) ]
