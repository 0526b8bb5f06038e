(* Crash-safe soak campaigns (lib/soak, DESIGN.md §15).

   Covers the clock shim, the campaign-entry text codec, the framed
   journal file layer (including the committed binary fixtures generated
   by scripts/make_trace_fixtures.py — an independent Python encoder),
   kill-and-resume digest equivalence with QCheck-chosen interruption
   points and torn tails, wedged-run detection by event budget and by
   manual-clock wall deadline, the degradation ladder through abort,
   quarantine artifacts replaying from disk, and the decodable-prefix
   guarantee of trace sinks crashed mid-run. *)

module Clock = Harness.Clock
module Builder = Harness.Builder
module Sweep = Harness.Sweep
module PJ = Persist.Journal
module SJ = Soak.Journal
module Campaign = Soak.Campaign
module Runner = Soak.Runner
module Report = Soak.Report

let checki = Alcotest.(check int)
let checks = Alcotest.(check string)
let checkb = Alcotest.(check bool)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let read_file path = In_channel.with_open_bin path In_channel.input_all

let append_raw path bytes =
  let oc =
    Out_channel.open_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path
  in
  Out_channel.output_string oc bytes;
  Out_channel.close oc

(* Fresh temp paths; the runner creates artifact directories itself. *)
let fresh_path suffix =
  let f = Filename.temp_file "ecsoak" suffix in
  Sys.remove f;
  f

(* ------------------------------------------------------------------ *)
(* Clock shim                                                          *)
(* ------------------------------------------------------------------ *)

let test_clock_manual () =
  let c = Clock.manual ~start:5 () in
  checki "start" 5 (Clock.now_ms c);
  Clock.advance c 10;
  checki "advanced" 15 (Clock.now_ms c);
  Clock.advance c (-3);
  checki "negative delta ignored" 15 (Clock.now_ms c);
  checki "elapsed" 12 (Clock.elapsed_ms c ~since:3);
  checki "elapsed clamps at zero" 0 (Clock.elapsed_ms c ~since:100)

let test_clock_monotonic () =
  let c = Clock.monotonic () in
  let a = Clock.now_ms c in
  let b = Clock.now_ms c in
  checkb "non-decreasing" true (b >= a);
  checkb "advance rejected" true
    (match Clock.advance c 1 with
     | () -> false
     | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Campaign-entry codec                                                *)
(* ------------------------------------------------------------------ *)

let sample_config =
  { SJ.legs = [ "alg5" ];
    budget = 4;
    seed = 1;
    max_adversities = 4;
    event_budget = 1000;
    deadline_ms = 500;
    max_findings = 2;
    max_poisoned = 1;
    artifacts = "_artifacts/soak" }

let sample_entries =
  [ SJ.Config sample_config;
    SJ.Run { job = 0; digest = "0123456789abcdef0123456789abcdef" };
    SJ.Finding
      { job = 3;
        violations = [ "agreement: p1 diverges"; "exception: Boom" ];
        spec = [ "ecsim-spec v1"; "target alg5"; "seed 4" ];
        shrunk_ok = true;
        artifact = "finding-3.spec" };
    SJ.Poisoned
      { job = 1; kind = "stuck"; detail = "event budget exceeded (1000 events)" };
    SJ.Degrade { domains = 2; reason = "2 consecutive poisoned jobs" };
    SJ.Checkpoint { next = 2 } ]

let test_entry_roundtrip () =
  List.iter
    (fun e ->
       let payload = SJ.encode e in
       match SJ.decode payload with
       | Error m -> Alcotest.failf "decode failed: %s\npayload:\n%s" m payload
       | Ok e' -> checks "re-encode is identity" payload (SJ.encode e'))
    sample_entries;
  (* Field-level pins on the decoded forms. *)
  (match SJ.decode (SJ.encode (List.nth sample_entries 2)) with
   | Ok (SJ.Finding { job; violations; spec; shrunk_ok; artifact }) ->
     checki "finding job" 3 job;
     checkb "finding shrunk" true shrunk_ok;
     checks "finding artifact" "finding-3.spec" artifact;
     checki "violations kept" 2 (List.length violations);
     checki "spec kept" 3 (List.length spec)
   | _ -> Alcotest.fail "finding did not roundtrip");
  match SJ.decode (SJ.encode (List.hd sample_entries)) with
  | Ok (SJ.Config c) ->
    checkb "config roundtrip" true (c = sample_config)
  | _ -> Alcotest.fail "config did not roundtrip"

let test_entry_newline_normalization () =
  (* A violation message with embedded newlines (e.g. the spec context a
     Sweep worker error carries) must not corrupt record structure: it is
     flattened through the escape, and the decoded entry re-encodes to
     the same single record. *)
  let e =
    SJ.Poisoned
      { job = 7; kind = "worker"; detail = "seed 7: Failure\nspec line 2" }
  in
  let payload = SJ.encode e in
  checkb "payload is one line" false (contains payload "\n");
  match SJ.decode payload with
  | Ok (SJ.Poisoned { job; kind; detail }) ->
    checks "newline restored on decode" "seed 7: Failure\nspec line 2" detail;
    checks "stable under re-encode" payload
      (SJ.encode (SJ.Poisoned { job; kind; detail }))
  | _ -> Alcotest.fail "poisoned did not decode"

let test_entry_malformed () =
  List.iter
    (fun payload ->
       match SJ.decode payload with
       | Error _ -> ()
       | Ok _ -> Alcotest.failf "accepted malformed payload: %s" payload)
    [ ""; "frobnicate 1"; "config v2"; "run 3"; "run x y";
      "finding 1 shrunk=yes artifact=a"; "checkpoint ";
      "finding 1 shrunk=true artifact=a\nviolations 2\nonly-one" ]

(* Safe alphabets: characters json_escape leaves alone, so encode∘decode
   is the identity and re-encode comparison is exact. *)
let gen_token =
  QCheck.Gen.(
    string_size ~gen:(oneofl [ 'a'; 'z'; '0'; '9'; '.'; '_'; '-' ])
      (int_range 1 12))

let gen_text =
  QCheck.Gen.(
    string_size
      ~gen:(oneofl [ 'a'; 'Z'; ' '; ':'; '('; ')'; '5'; '/'; '-'; '\\'; '"'; '\n'; '\t' ])
      (int_range 0 24))

let gen_entry =
  QCheck.Gen.(
    oneof
      [ map2 (fun job digest -> SJ.Run { job; digest }) nat gen_token;
        map3
          (fun job kind detail -> SJ.Poisoned { job; kind; detail })
          nat gen_token gen_text;
        map2
          (fun domains reason -> SJ.Degrade { domains; reason })
          (int_range 0 8) gen_text;
        map (fun next -> SJ.Checkpoint { next }) nat;
        map2
          (fun (job, violations, spec) (shrunk_ok, artifact) ->
            SJ.Finding { job; violations; spec; shrunk_ok; artifact })
          (triple nat
             (list_size (int_range 0 3) gen_text)
             (list_size (int_range 0 4) gen_text))
          (pair bool gen_token);
        map3
          (fun legs budget seed ->
            SJ.Config { sample_config with SJ.legs = legs; budget; seed })
          (list_size (int_range 0 3) gen_token)
          nat nat ])

let qcheck_entry_roundtrip =
  QCheck.Test.make ~count:200 ~name:"entry codec: decode inverts encode"
    (QCheck.make gen_entry) (fun e ->
      let payload = SJ.encode e in
      match SJ.decode payload with
      | Error m -> QCheck.Test.fail_reportf "decode: %s\n%s" m payload
      | Ok e' -> SJ.encode e' = payload)

(* ------------------------------------------------------------------ *)
(* Framed journal file layer                                           *)
(* ------------------------------------------------------------------ *)

let jrecords = [ "alpha"; "beta with spaces"; String.make 120 'x'; "tail" ]

let write_journal records =
  let path = fresh_path ".journal" in
  let w = PJ.create path in
  List.iter (PJ.append w) records;
  PJ.close w;
  path

let test_journal_roundtrip () =
  let path = write_journal jrecords in
  match PJ.read path with
  | Error e -> Alcotest.failf "read: %s" e
  | Ok c ->
    checkb "no torn tail" false c.PJ.torn;
    checkb "records roundtrip" true (c.PJ.records = jrecords);
    Sys.remove path

let test_journal_bad_header () =
  let path = fresh_path ".journal" in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc "NOTAJRNL");
  (match PJ.read path with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "accepted bad magic");
  Sys.remove path;
  match PJ.read (fresh_path ".missing") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted missing file"

(* Frame boundaries of the journal above: magic, then 8 + |payload| per
   record.  Any truncation point must yield exactly the whole-frame
   prefix, with [torn] iff bytes dangle past the last boundary. *)
let qcheck_journal_truncation =
  let path = write_journal jrecords in
  let data = read_file path in
  Sys.remove path;
  let boundaries =
    (* cumulative offsets after the magic and after each frame *)
    let m = String.length PJ.magic in
    List.rev
      (List.fold_left
         (fun acc r -> (List.hd acc + 8 + String.length r) :: acc)
         [ m ] jrecords)
  in
  QCheck.Test.make ~count:60 ~name:"journal: any truncation leaves clean prefix"
    QCheck.(int_range 0 (String.length data))
    (fun cut ->
      let part = fresh_path ".part" in
      Out_channel.with_open_bin part (fun oc ->
          Out_channel.output_string oc (String.sub data 0 cut));
      let r = PJ.read part in
      Sys.remove part;
      if cut < String.length PJ.magic then
        match r with Error _ -> true | Ok _ -> false
      else
        match r with
        | Error e -> QCheck.Test.fail_reportf "cut=%d: %s" cut e
        | Ok c ->
          let whole =
            List.length (List.filter (fun b -> b <= cut) boundaries) - 1
          in
          let expect =
            List.filteri (fun i _ -> i < whole) jrecords
          in
          c.PJ.records = expect
          && c.PJ.torn = not (List.exists (fun b -> b = cut) boundaries))

let test_journal_resume_compacts () =
  let path = write_journal jrecords in
  (* Tear the tail: a partial frame a crashed writer left behind. *)
  append_raw path "\x40\x00\x00\x00AB";
  (match PJ.read path with
   | Ok c -> checkb "tear detected" true c.PJ.torn
   | Error e -> Alcotest.failf "read torn: %s" e);
  (match PJ.resume path with
   | Error e -> Alcotest.failf "resume: %s" e
   | Ok (c, w) ->
     checkb "clean prefix recovered" true (c.PJ.records = jrecords);
     PJ.append w "appended-after-crash";
     PJ.close w);
  match PJ.read path with
  | Error e -> Alcotest.failf "reread: %s" e
  | Ok c ->
    checkb "compacted" false c.PJ.torn;
    checkb "append lands after prefix" true
      (c.PJ.records = jrecords @ [ "appended-after-crash" ]);
    Sys.remove path

(* Committed fixtures: an independent Python encoder
   (scripts/make_trace_fixtures.py) pins the on-disk format. *)

let fixture_config =
  { sample_config with SJ.artifacts = "_artifacts/soak" }

let test_journal_fixture_ok () =
  match PJ.read "fixtures/journal_v1_ok.bin" with
  | Error e -> Alcotest.failf "fixture: %s" e
  | Ok c ->
    checkb "fixture clean" false c.PJ.torn;
    checki "fixture records" 4 (List.length c.PJ.records);
    let entries =
      List.map
        (fun p ->
           match SJ.decode p with
           | Ok e -> e
           | Error m -> Alcotest.failf "fixture record undecodable: %s" m)
        c.PJ.records
    in
    (* Cross-validate the OCaml encoder against the Python bytes. *)
    List.iter2
      (fun payload e -> checks "encoder matches fixture bytes" payload (SJ.encode e))
      c.PJ.records entries;
    (match entries with
     | [ SJ.Config cfg;
         SJ.Run { job; digest };
         SJ.Poisoned { kind; detail; _ };
         SJ.Checkpoint { next } ] ->
       checkb "config fields" true (cfg = fixture_config);
       checki "run job" 0 job;
       checks "run digest" "0123456789abcdef0123456789abcdef" digest;
       checks "poisoned kind" "stuck" kind;
       checks "poisoned detail" "event budget exceeded (1000 events)" detail;
       checki "checkpoint" 2 next
     | _ -> Alcotest.fail "unexpected fixture entry shapes")

let test_journal_fixture_torn () =
  match PJ.read "fixtures/journal_torn_tail.bin" with
  | Error e -> Alcotest.failf "fixture: %s" e
  | Ok c ->
    checkb "torn flagged" true c.PJ.torn;
    checki "whole records kept" 3 (List.length c.PJ.records)

let test_journal_fixture_bad_crc () =
  match PJ.read "fixtures/journal_bad_crc.bin" with
  | Error e -> Alcotest.failf "fixture: %s" e
  | Ok c ->
    checkb "corrupt frame stops the prefix" true c.PJ.torn;
    checki "clean prefix is the config" 1 (List.length c.PJ.records);
    match SJ.decode (List.hd c.PJ.records) with
    | Ok (SJ.Config _) -> ()
    | _ -> Alcotest.fail "prefix head is not the config"

(* ------------------------------------------------------------------ *)
(* Campaign: kill-and-resume equivalence                               *)
(* ------------------------------------------------------------------ *)

let alg5 = Builder.template Harness.Stacks.Algorithm_5
let faithful_leg = { Campaign.name = "alg5"; target = alg5 }

let mutant_leg =
  { Campaign.name = "mutant-drop-union";
    target =
      { alg5 with Builder.mutation = Some Ec_core.Etob_omega.Drop_graph_union }
  }

let mk_config ~artifacts =
  { Campaign.legs = [ faithful_leg; mutant_leg ];
    budget = 6;
    seed = 7;
    max_adversities = 3;
    event_budget = 200_000;
    deadline_ms = 10_000;
    max_findings = 2;
    max_poisoned = 4;
    artifacts }

type baseline_data = {
  b_state : Campaign.state;
  b_digest : string;
  b_artifacts : string;
}

(* The uninterrupted reference campaign, run once and shared by the
   resume-equivalence property and the quarantine-artifact test. *)
let baseline =
  lazy
    (let artifacts = fresh_path ".artifacts" in
     let journal = fresh_path ".journal" in
     let config = mk_config ~artifacts in
     match Runner.start ~domains:2 ~journal config with
     | Error e -> Alcotest.failf "baseline campaign: %s" e
     | Ok { Runner.state; _ } ->
       Sys.remove journal;
       { b_state = state;
         b_digest = Campaign.coverage_digest state;
         b_artifacts = artifacts })

let finding_signature (st : Campaign.state) =
  List.map
    (function
      | SJ.Finding { job; shrunk_ok; spec; _ } -> (job, shrunk_ok, spec)
      | _ -> Alcotest.fail "non-finding in finding list")
    (Campaign.finding_list st)

(* The tentpole acceptance property: interrupt the campaign after a
   QCheck-chosen number of jobs (stop_after is the deterministic SIGKILL
   stand-in), optionally tear the journal tail, resume, and require the
   coverage digest and finding set byte-identical to the uninterrupted
   baseline — across different domain counts on each side. *)
let qcheck_resume_equivalence =
  let total =
    Campaign.total_jobs (mk_config ~artifacts:"unused")
  in
  QCheck.Test.make ~count:6 ~name:"kill-and-resume: digest-identical"
    QCheck.(pair (int_range 0 total) bool)
    (fun (k, tear) ->
      let b = Lazy.force baseline in
      let artifacts = fresh_path ".artifacts" in
      let journal = fresh_path ".journal" in
      let config = mk_config ~artifacts in
      (match Runner.start ~domains:1 ~stop_after:k ~journal config with
       | Error e -> QCheck.Test.fail_reportf "interrupted start: %s" e
       | Ok _ -> ());
      if tear then append_raw journal "\x2a\x00\x00\x00to";
      match Runner.resume_with ~domains:2 ~journal config with
      | Error e -> QCheck.Test.fail_reportf "resume (k=%d): %s" k e
      | Ok { Runner.state; _ } ->
        Sys.remove journal;
        if Campaign.coverage_digest state <> b.b_digest then
          QCheck.Test.fail_reportf "digest diverged at k=%d tear=%b" k tear
        else finding_signature state = finding_signature b.b_state)

let test_resume_completed_idempotent () =
  (* Resuming a finished campaign runs nothing and reports the same
     state; the journal survives the compaction rewrite.  Uses a
     catalogue-only leg because Runner.resume (the --resume FILE path)
     rebuilds the config from journaled leg names. *)
  let journal = fresh_path ".journal" in
  let config =
    { Campaign.legs = [ faithful_leg ];
      budget = 4;
      seed = 7;
      max_adversities = 3;
      event_budget = 200_000;
      deadline_ms = 10_000;
      max_findings = 2;
      max_poisoned = 4;
      artifacts = fresh_path ".artifacts" }
  in
  let digest =
    match Runner.start ~domains:2 ~journal config with
    | Error e -> Alcotest.failf "start: %s" e
    | Ok { Runner.state; _ } -> Campaign.coverage_digest state
  in
  (match Runner.resume ~domains:1 ~journal () with
   | Error e -> Alcotest.failf "resume: %s" e
   | Ok { Runner.state; _ } ->
     checks "digest unchanged" digest (Campaign.coverage_digest state);
     checkb "nothing left to run" true
       (Campaign.pending config state = []));
  Sys.remove journal

let test_resume_config_mismatch () =
  let artifacts = fresh_path ".artifacts" in
  let journal = fresh_path ".journal" in
  let config = mk_config ~artifacts in
  (match Runner.start ~domains:1 ~stop_after:2 ~journal config with
   | Error e -> Alcotest.failf "start: %s" e
   | Ok _ -> ());
  (match
     Runner.resume_with ~domains:1 ~journal
       { config with Campaign.seed = config.Campaign.seed + 1 }
   with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "accepted a mismatched resume config");
  Sys.remove journal

(* ------------------------------------------------------------------ *)
(* Quarantine artifacts                                                *)
(* ------------------------------------------------------------------ *)

let test_quarantine_artifacts_replay () =
  let b = Lazy.force baseline in
  let findings = Campaign.finding_list b.b_state in
  checkb "mutant leg produced findings" true (findings <> []);
  checki "stopped at max_findings" 2 (List.length findings);
  List.iter
    (function
      | SJ.Finding { spec; shrunk_ok; artifact; _ } ->
        checkb "shrunk repro replays" true shrunk_ok;
        checkb "artifact recorded" true (artifact <> "");
        let path = Filename.concat b.b_artifacts artifact in
        checkb "artifact on disk" true (Sys.file_exists path);
        (match Builder.read path with
         | Error e -> Alcotest.failf "artifact unparseable: %s" e
         | Ok repro ->
           let o = Builder.run ~digest:true ~catch:true repro in
           checkb "artifact still violates" true (o.Builder.violations <> []);
           (match Builder.recorded_digest (read_file path) with
            | Some d -> checks "artifact digest reproduces" d o.Builder.digest
            | None -> ()));
        (* The journaled spec block is itself a parseable repro. *)
        (match Builder.of_lines spec with
         | Ok _ -> ()
         | Error e -> Alcotest.failf "journaled spec unparseable: %s" e)
      | _ -> ())
    findings

(* ------------------------------------------------------------------ *)
(* Wedged runs: event budget and wall deadline                         *)
(* ------------------------------------------------------------------ *)

let one_leg_config ~artifacts ~budget ~event_budget ~deadline_ms ~max_poisoned =
  { Campaign.legs = [ faithful_leg ];
    budget;
    seed = 7;
    max_adversities = 3;
    event_budget;
    deadline_ms;
    max_findings = 8;
    max_poisoned;
    artifacts }

(* An executor that wedges (spins on the guard) for selected seeds and
   otherwise defers to the real interpreter — the "deliberately wedged
   run" of the acceptance criteria, made deterministic. *)
let wedge_on pred : Runner.exec =
 fun ~guard target ~seed plan ->
  if pred seed then (
    try
      let rec spin () =
        guard ();
        spin ()
      in
      spin ()
    with Runner.Stuck m -> Runner.Wedged m)
  else Runner.default_exec ~guard target ~seed plan

let decode_journal path =
  match PJ.read path with
  | Error e -> Alcotest.failf "journal read: %s" e
  | Ok c ->
    List.map
      (fun p ->
         match SJ.decode p with
         | Ok e -> e
         | Error m -> Alcotest.failf "journal record: %s" m)
      c.PJ.records

let test_wedge_event_budget () =
  let journal = fresh_path ".journal" in
  let config =
    one_leg_config ~artifacts:(fresh_path ".artifacts") ~budget:6
      ~event_budget:50_000 ~deadline_ms:10_000 ~max_poisoned:4
  in
  (* engine seeds are 7..12; wedge the two divisible by 3 (9 and 12). *)
  let exec = wedge_on (fun seed -> seed mod 3 = 0) in
  match Runner.start ~domains:2 ~exec ~journal config with
  | Error e -> Alcotest.failf "campaign: %s" e
  | Ok { Runner.state; _ } ->
    checki "poisoned seeds" 2 state.Campaign.poisoned;
    checki "clean runs" 4 state.Campaign.clean;
    checkb "campaign completed" true (state.Campaign.aborted = None);
    checkb "no ladder step (non-consecutive)" true
      (state.Campaign.halvings = 0);
    checkb "clean verdict despite poison" true
      (Report.verdict state = Report.Clean);
    checki "exit code" 0 (Report.exit_code (Report.verdict state));
    let poisoned =
      List.filter_map
        (function
          | SJ.Poisoned { kind; detail; _ } -> Some (kind, detail)
          | _ -> None)
        (decode_journal journal)
    in
    checki "poisoned journaled" 2 (List.length poisoned);
    List.iter
      (fun (kind, detail) ->
         checks "stuck kind" "stuck" kind;
         checkb "budget named in detail" true
           (contains detail "event budget exceeded"))
      poisoned;
    Sys.remove journal

let test_wedge_wall_deadline () =
  let journal = fresh_path ".journal" in
  let config =
    one_leg_config ~artifacts:(fresh_path ".artifacts") ~budget:2
      ~event_budget:10_000_000 ~deadline_ms:1_000 ~max_poisoned:8
  in
  (* A manual clock the wedged run advances itself: the guard samples
     the clock every 256 events, so each spin trips the deadline without
     any real time passing — the deadline path, unit-tested without
     sleeping. *)
  let clock = Clock.manual () in
  let exec : Runner.exec =
   fun ~guard _target ~seed:_ _plan ->
    try
      let rec spin () =
        Clock.advance clock 100;
        guard ();
        spin ()
      in
      spin ()
    with Runner.Stuck m -> Runner.Wedged m
  in
  match Runner.start ~domains:1 ~clock ~exec ~journal config with
  | Error e -> Alcotest.failf "campaign: %s" e
  | Ok { Runner.state; _ } ->
    checki "both runs poisoned" 2 state.Campaign.poisoned;
    checkb "campaign completed" true (state.Campaign.aborted = None);
    List.iter
      (fun (kind, detail) ->
         checks "stuck kind" "stuck" kind;
         checkb "deadline named in detail" true
           (contains detail "wall deadline exceeded"))
      (List.filter_map
         (function
           | SJ.Poisoned { kind; detail; _ } -> Some (kind, detail)
           | _ -> None)
         (decode_journal journal));
    Sys.remove journal

(* ------------------------------------------------------------------ *)
(* Degradation ladder                                                  *)
(* ------------------------------------------------------------------ *)

let test_degradation_ladder_abort () =
  let journal = fresh_path ".journal" in
  let config =
    one_leg_config ~artifacts:(fresh_path ".artifacts") ~budget:8
      ~event_budget:1_000 ~deadline_ms:10_000 ~max_poisoned:3
  in
  let exec = wedge_on (fun _ -> true) in
  (match Runner.start ~domains:4 ~exec ~journal config with
   | Error e -> Alcotest.failf "campaign: %s" e
   | Ok { Runner.state; _ } ->
     (* d0 = 4: jobs 0-1 poison (streak 2 halves concurrency to 2 and
        resets the streak), jobs 2-3 poison again and the fourth
        poisoned job exhausts max_poisoned = 3 before the streak can
        trigger a second halving. *)
     checki "poisoned before abort" 4 state.Campaign.poisoned;
     checki "ladder rungs taken" 1 state.Campaign.halvings;
     checkb "aborted" true (state.Campaign.aborted <> None);
     (match Report.verdict state with
      | Report.Aborted reason ->
        checkb "abort names the budget" true
          (contains reason "poisoned-seed budget exhausted")
      | _ -> Alcotest.fail "expected aborted verdict");
     checki "infra exit code" 2 (Report.exit_code (Report.verdict state));
     let degrades =
       List.filter_map
         (function SJ.Degrade { domains; _ } -> Some domains | _ -> None)
         (decode_journal journal)
     in
     checkb "halving then abort journaled" true (degrades = [ 2; 0 ]));
  (* Resuming an aborted campaign stays aborted without running jobs. *)
  (match Runner.resume_with ~domains:4 ~exec ~journal config with
   | Error e -> Alcotest.failf "resume: %s" e
   | Ok { Runner.state; _ } ->
     checkb "still aborted" true (state.Campaign.aborted <> None);
     checki "no extra jobs" 4 state.Campaign.poisoned;
     checkb "jobs remain unprocessed" true
       (Campaign.pending config state <> []));
  Sys.remove journal

(* ------------------------------------------------------------------ *)
(* Sweep worker-error context (satellite)                              *)
(* ------------------------------------------------------------------ *)

let test_sweep_error_context () =
  let context ~seed = Printf.sprintf "builder-spec-for-%d" seed in
  (match
     Sweep.map_safe ~domains:2 ~context ~seeds:[ 1; 2; 3 ] (fun ~seed ->
         if seed = 2 then failwith "boom" else seed)
   with
   | [ { Sweep.value = Ok 1; _ };
       { Sweep.value = Error e; seed = 2 };
       { Sweep.value = Ok 3; _ } ] ->
     checkb "names the seed" true (contains e "seed 2:");
     checkb "carries the exception" true (contains e "boom");
     checkb "carries the repro context" true (contains e "builder-spec-for-2")
   | _ -> Alcotest.fail "unexpected sweep shape");
  match
    Sweep.map_safe ~domains:1
      ~context:(fun ~seed:_ -> failwith "context exploded")
      ~seeds:[ 5 ]
      (fun ~seed:_ -> failwith "boom")
  with
  | [ { Sweep.value = Error e; _ } ] ->
    checkb "context crash swallowed" true (contains e "<context unavailable>")
  | _ -> Alcotest.fail "unexpected sweep shape"

(* ------------------------------------------------------------------ *)
(* Crashing trace sinks leave a decodable prefix (satellite)           *)
(* ------------------------------------------------------------------ *)

let crash_run_with_trace fmt path =
  let plan = Builder.plan_at alg5 ~seed:3 ~max_adversities:3 1 in
  let b = Builder.with_plan alg5 ~seed:3 plan in
  let b = { b with Builder.trace_out = Some (path, fmt) } in
  let events = ref 0 in
  let guard () =
    incr events;
    if !events >= 40 then raise (Runner.Stuck "simulated crash")
  in
  match Builder.run ~guard b with
  | _ -> Alcotest.fail "run was expected to crash"
  | exception Runner.Stuck _ -> ()

let test_sink_crash_binary_prefix () =
  let path = fresh_path ".trace.bin" in
  crash_run_with_trace Builder.Binary path;
  (match Persist.Frame.decode (read_file path) with
   | Error e ->
     Alcotest.failf "crashed binary trace undecodable: %s"
       (Format.asprintf "%a" Persist.Frame.pp_error e)
   | Ok items ->
     checkb "whole frames only, none torn" true
       (List.length (Persist.Frame.events items) > 0));
  Sys.remove path

let test_sink_crash_jsonl_prefix () =
  let path = fresh_path ".trace.jsonl" in
  crash_run_with_trace Builder.Jsonl path;
  let lines =
    String.split_on_char '\n' (read_file path)
    |> List.filter (fun l -> l <> "")
  in
  checkb "events flushed before crash" true (lines <> []);
  List.iter
    (fun l ->
       checkb "complete json object per line" true
         (String.length l >= 2 && l.[0] = '{' && l.[String.length l - 1] = '}'))
    lines;
  Sys.remove path

(* ------------------------------------------------------------------ *)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "soak"
    [ ( "clock",
        [ Alcotest.test_case "manual clock" `Quick test_clock_manual;
          Alcotest.test_case "monotonic clock" `Quick test_clock_monotonic ] );
      ( "entry codec",
        [ Alcotest.test_case "roundtrip" `Quick test_entry_roundtrip;
          Alcotest.test_case "newline normalization" `Quick
            test_entry_newline_normalization;
          Alcotest.test_case "malformed payloads" `Quick test_entry_malformed ]
        @ qc [ qcheck_entry_roundtrip ] );
      ( "journal file",
        [ Alcotest.test_case "roundtrip" `Quick test_journal_roundtrip;
          Alcotest.test_case "bad header" `Quick test_journal_bad_header;
          Alcotest.test_case "resume compacts torn tail" `Quick
            test_journal_resume_compacts;
          Alcotest.test_case "fixture ok" `Quick test_journal_fixture_ok;
          Alcotest.test_case "fixture torn tail" `Quick
            test_journal_fixture_torn;
          Alcotest.test_case "fixture bad crc" `Quick
            test_journal_fixture_bad_crc ]
        @ qc [ qcheck_journal_truncation ] );
      ( "campaign resume",
        [ Alcotest.test_case "completed resume idempotent" `Quick
            test_resume_completed_idempotent;
          Alcotest.test_case "config mismatch rejected" `Quick
            test_resume_config_mismatch ]
        @ qc [ qcheck_resume_equivalence ] );
      ( "quarantine",
        [ Alcotest.test_case "artifacts replay" `Quick
            test_quarantine_artifacts_replay ] );
      ( "wedged runs",
        [ Alcotest.test_case "event budget" `Quick test_wedge_event_budget;
          Alcotest.test_case "wall deadline (manual clock)" `Quick
            test_wedge_wall_deadline ] );
      ( "degradation ladder",
        [ Alcotest.test_case "halve then abort" `Quick
            test_degradation_ladder_abort ] );
      ( "sweep context",
        [ Alcotest.test_case "worker error carries repro" `Quick
            test_sweep_error_context ] );
      ( "sink crash prefix",
        [ Alcotest.test_case "binary trace decodable" `Quick
            test_sink_crash_binary_prefix;
          Alcotest.test_case "jsonl trace complete lines" `Quick
            test_sink_crash_jsonl_prefix ] ) ]
