(* Self-test for detlint (DESIGN.md §12): the fixture corpus under
   lint_fixtures/ triggers exactly one rule per file and matches a golden
   JSON report byte-for-byte; the real tree scans clean; malformed
   allowlist directives are hard errors.

   Note on self-reference: this file is itself scanned by the real-tree
   test (and by CI), so directive-like strings below are assembled at
   runtime — the literal comment opener never appears in the source. *)

open Lint

let scan ?strict roots =
  match Driver.scan ?strict roots with
  | Ok r -> r
  | Error e -> Alcotest.failf "detlint scan error: %s" e

let rules r = List.map (fun (f : Finding.t) -> Finding.rule_id f.rule) r.Driver.findings

(* ------------------------------------------------------------------ *)
(* Fixtures                                                            *)
(* ------------------------------------------------------------------ *)

let fixture_expectations =
  [ ("lint_fixtures/d1_random.ml", "D1");
    ("lint_fixtures/d2_wallclock.ml", "D2");
    ("lint_fixtures/d3_hashtbl.ml", "D3");
    ("lint_fixtures/d3_hashtbl_functor.ml", "D3");
    ("lint_fixtures/d4_poly_compare.ml", "D4");
    ("lint_fixtures/d5_marshal.ml", "D5");
    ("lint_fixtures/d6_unsealed.ml", "D6") ]

(* Each fixture, scanned alone in strict mode, yields exactly its one
   intended finding — so a fixture can never accidentally regress into
   triggering a second rule without this failing. *)
let test_one_finding_per_fixture () =
  List.iter
    (fun (file, rule) ->
       let r = scan ~strict:true [ file ] in
       Alcotest.(check (list string)) (file ^ " rules") [ rule ] (rules r);
       let f = List.hd r.Driver.findings in
       Alcotest.(check string) (file ^ " file") file f.Finding.file)
    fixture_expectations

(* The whole corpus vs the golden machine-readable report: rule, file,
   line, col and message of every finding, byte-for-byte. *)
let test_fixtures_match_golden () =
  let r = scan ~strict:true [ "lint_fixtures" ] in
  let golden =
    In_channel.with_open_bin "lint_fixtures/golden_report.json"
      In_channel.input_all
  in
  Alcotest.(check string) "golden JSON report" golden (Report.to_json r)

(* The justified fixture: gate passes, suppression is still reported. *)
let test_allowlisted_fixture_is_clean () =
  let r = scan ~strict:true [ "lint_fixtures/allowlisted_sorted.ml" ] in
  Alcotest.(check (list string)) "no findings" [] (rules r);
  Alcotest.(check int) "one allowed" 1 (List.length r.Driver.allowed)

(* The Harness.Clock carve-out pattern: a wall-clock read under a
   justified D2 allow passes the gate (suppression reported), while the
   same call without a directive — d2_wallclock.ml, checked alongside —
   still fails.  The rule stays intact; only the one deadline-clock call
   site is sanctioned. *)
let test_clock_allow_pattern () =
  let r = scan ~strict:true [ "lint_fixtures/allowlisted_clock.ml" ] in
  Alcotest.(check (list string)) "no findings" [] (rules r);
  (match r.Driver.allowed with
   | [ (f, _justification) ] ->
     Alcotest.(check string) "allowed rule is D2" "D2"
       (Finding.rule_id f.Finding.rule)
   | l -> Alcotest.failf "expected one allowed finding, got %d" (List.length l));
  let raw = scan ~strict:true [ "lint_fixtures/d2_wallclock.ml" ] in
  Alcotest.(check (list string)) "raw wall clock still fails" [ "D2" ]
    (rules raw)

(* ------------------------------------------------------------------ *)
(* The real tree                                                       *)
(* ------------------------------------------------------------------ *)

(* The repository's own sources scan clean: this is the same invocation
   CI uses as a hard gate (`detlint lib bin test`), run from the test
   sandbox one level down. *)
let test_real_tree_is_clean () =
  let roots =
    List.filter Sys.file_exists [ "../lib"; "../bin"; "../test" ]
  in
  if List.length roots < 3 then
    Alcotest.skip ()
  else begin
    let r = scan ~strict:false roots in
    List.iter
      (fun (f : Finding.t) ->
         Format.eprintf "unexpected finding: %a@." Finding.pp_human f)
      r.Driver.findings;
    Alcotest.(check (list string)) "no findings" [] (rules r);
    Alcotest.(check bool) "scanned a real tree" true (r.Driver.files > 50);
    Alcotest.(check bool) "deliberate allowlists present" true
      (List.length r.Driver.allowed >= 5)
  end

(* lint_fixtures is skipped when reached as a *child* (that is why the
   gate can scan test/ at all), yet scanned when named as a root. *)
let test_fixture_dir_skipped_as_child () =
  let r = scan ~strict:false [ "." ] in
  List.iter
    (fun (f : Finding.t) ->
       Alcotest.(check bool)
         ("finding outside lint_fixtures: " ^ f.Finding.file) false
         (String.length f.Finding.file >= 13
          && String.sub f.Finding.file 0 13 = "lint_fixtures"))
    r.Driver.findings

(* ------------------------------------------------------------------ *)
(* Directives and report plumbing                                      *)
(* ------------------------------------------------------------------ *)

(* Built at runtime so the opener never appears literally in this file. *)
let directive body = "(" ^ "* detlint: " ^ body ^ " *" ^ ")\nlet x = 1\n"

let test_malformed_directives_are_errors () =
  let expect_error body =
    match Allow.scan ~file:"inline.ml" (directive body) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "directive %S should be a scan error" body
  in
  expect_error "allow D9 nonsense rule";
  expect_error "allow D5";  (* justification is mandatory *)
  expect_error "frobnicate the gate"

let test_wellformed_directives_parse () =
  let expect_rule body rule line =
    match Allow.scan ~file:"inline.ml" (directive body) with
    | Error e -> Alcotest.failf "directive %S rejected: %s" body e
    | Ok t ->
      Alcotest.(check bool) (body ^ " permits") true
        (Allow.permits t rule ~line <> None)
  in
  (* The directive sits on line 1: it covers findings on lines 1 and 2. *)
  expect_rule "sorted" Finding.D3 2;
  expect_rule "allow D5 physical identity is the point" Finding.D5 1;
  match Allow.scan ~file:"inline.ml" (directive "sorted") with
  | Error e -> Alcotest.fail e
  | Ok t ->
    Alcotest.(check bool) "does not cover other rules" true
      (Allow.permits t Finding.D5 ~line:2 = None);
    Alcotest.(check bool) "does not cover distant lines" true
      (Allow.permits t Finding.D3 ~line:4 = None)

(* Edge cases on the scanner itself: punctuation-heavy justifications,
   CRLF line endings, and a directive on the file's final line (no
   trailing newline) must all parse, with justifications preserved
   verbatim. *)
let test_directive_edge_cases () =
  let reason_of source rule ~line =
    match Allow.scan ~file:"inline.ml" source with
    | Error e -> Alcotest.failf "scan rejected: %s" e
    | Ok t ->
      (match Allow.permits t rule ~line with
       | None -> Alcotest.failf "no %s entry at line %d" (Finding.rule_id rule) line
       | Some why -> why)
  in
  (* Colons and quotes in the justification survive verbatim. *)
  let why = "cache key: \"host:port\" pairs; see DESIGN.md \xc2\xa717" in
  Alcotest.(check string) "punctuation-heavy justification" why
    (reason_of (directive ("allow D5 " ^ why)) Finding.D5 ~line:1);
  (* CRLF endings: the trailing \r sits outside the comment closer and
     must not leak into the justification or shift line numbers. *)
  let crlf =
    "let a = 1\r\n"
    ^ "(" ^ "* detlint: allow A5 bounded by construction *" ^ ")\r\n"
    ^ "let b = 2\r\n"
  in
  Alcotest.(check string) "CRLF justification" "bounded by construction"
    (reason_of crlf Finding.A5 ~line:3);
  (* Directive on the very last line, no trailing newline. *)
  let last = "let a = 1\n(" ^ "* detlint: sorted folded into a sum *" ^ ")" in
  Alcotest.(check string) "last-line directive" "folded into a sum"
    (reason_of last Finding.D3 ~line:2)

(* D3 follows the table modules a file binds with the Hashtbl functors:
   under a signature constraint, through [Stdlib.], as a [let module],
   and not a module bound to another functor. *)
let test_d3_functor_bindings () =
  let d3_lines source =
    let lines = ref [] in
    let emit rule (loc : Location.t) _ =
      if rule = Finding.D3 then lines := loc.loc_start.pos_lnum :: !lines
    in
    Rules.run ~file:"inline.ml" ~strict:true ~emit
      (Parse.implementation (Lexing.from_string source));
    List.rev !lines
  in
  Alcotest.(check (list int)) "constrained Stdlib.Hashtbl.Make" [ 3 ]
    (d3_lines
       "module K = struct type t = int let equal = Int.equal let hash x = x end\n\
        module T : Hashtbl.S with type key = int = Stdlib.Hashtbl.Make (K)\n\
        let keys t = T.to_seq_keys t\n");
  Alcotest.(check (list int)) "let module MakeSeeded" [ 3 ]
    (d3_lines
       "let total k t =\n\
       \  let module T = Hashtbl.MakeSeeded (val k) in\n\
       \  T.fold (fun _ v acc -> v + acc) t 0\n");
  Alcotest.(check (list int)) "Map.Make is ordered" []
    (d3_lines "module M = Map.Make (Int)\nlet total m = M.fold (fun _ v a -> v + a) m 0\n")

let test_rule_ids_roundtrip () =
  List.iter
    (fun r ->
       Alcotest.(check (option string)) "roundtrip" (Some (Finding.rule_id r))
         (Option.map Finding.rule_id (Finding.rule_of_id (Finding.rule_id r))))
    Finding.all_rules

let () =
  Alcotest.run "lint"
    [ ("fixtures",
       [ Alcotest.test_case "one finding per fixture" `Quick
           test_one_finding_per_fixture;
         Alcotest.test_case "golden JSON report" `Quick
           test_fixtures_match_golden;
         Alcotest.test_case "allowlisted fixture clean" `Quick
           test_allowlisted_fixture_is_clean;
         Alcotest.test_case "clock D2 allow pattern" `Quick
           test_clock_allow_pattern ]);
      ("tree",
       [ Alcotest.test_case "real tree scans clean" `Quick
           test_real_tree_is_clean;
         Alcotest.test_case "fixtures skipped as child dir" `Quick
           test_fixture_dir_skipped_as_child ]);
      ("directives",
       [ Alcotest.test_case "malformed directives error" `Quick
           test_malformed_directives_are_errors;
         Alcotest.test_case "wellformed directives parse" `Quick
           test_wellformed_directives_parse;
         Alcotest.test_case "scanner edge cases" `Quick
           test_directive_edge_cases;
         Alcotest.test_case "D3 sees functor table bindings" `Quick
           test_d3_functor_bindings;
         Alcotest.test_case "rule ids roundtrip" `Quick
           test_rule_ids_roundtrip ]);
    ]
