(* Quarantine: shrink, verify, write artifact (see quarantine.mli). *)

module Builder = Harness.Builder

let quarantine ~artifacts ~target ~job ~seed ~plan ~violations ~digest =
  let outcome =
    { Builder.builder = Builder.with_plan ~seed target plan;
      trace = None;
      report = None;
      violations;
      digest }
  in
  (* The shrinker re-runs candidate plans with exceptions folded into
     violations, so it minimizes crashing runs too; its own failure
     (e.g. a plan that only violates under the original timing) keeps
     the unshrunk original — degrade, don't abort. *)
  let shrunk =
    match Builder.shrink target outcome with
    | s -> s
    | exception _ -> outcome
  in
  let builder = shrunk.Builder.builder in
  (* Replay the shrunk plan from scratch: a repro that does not
     reproduce is flagged, not shipped silently. *)
  let check =
    match Builder.run ~digest:true ~catch:true builder with
    | o -> Some o
    | exception _ -> None
  in
  let shrunk_ok =
    match check with
    | Some o -> o.Builder.violations <> []
    | None -> false
  in
  let digest =
    match check with
    | Some o when o.Builder.digest <> "" -> Some o.Builder.digest
    | _ -> None
  in
  let violations = shrunk.Builder.violations in
  let spec = Builder.to_lines ?digest ~violations builder in
  let artifact =
    let file = Printf.sprintf "finding-%d.spec" job in
    match
      Builder.write (Filename.concat artifacts file) ?digest ~violations
        builder
    with
    | () -> file
    | exception _ -> ""
  in
  Journal.Finding { job; violations; spec; shrunk_ok; artifact }
