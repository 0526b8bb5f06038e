(* ecsim: run and inspect eventual-consistency scenarios from the command
   line.

     ecsim list
     ecsim run --scenario partition --impl alg5 -n 5 --verbose
     ecsim check --scenario minority --impl paxos   (exit 1 on violations)
     ecsim run --spec finding.spec --timeline
     ecsim cht --crash 1:14 --rounds 5

   Every subcommand decodes its flags — or a builder spec file
   ([--spec FILE], the stable text form of [Harness.Builder]) — into one
   declarative builder value through a single shared decoder, and every
   run goes through [Builder.run]: the same code path as the test suite,
   exploration and recorded findings, so a run is deterministic in its
   spec. *)

open Simulator
open Ec_core
open Cmdliner
module Builder = Harness.Builder

(* ------------------------------------------------------------------ *)
(* The --scenario catalogue (declarative presets over the builder)    *)
(* ------------------------------------------------------------------ *)

type scenario = {
  sc_name : string;
  sc_doc : string;
  sc_build : n:int -> seed:int -> deadline:int -> Builder.stack -> Builder.t;
  sc_default_n : int;
}

let oracle ?(pre = Detectors.Omega.Self_trust) stabilize_at =
  Harness.Stacks.Oracle { stabilize_at; pre }

let scenarios =
  [ { sc_name = "stable";
      sc_doc = "failure-free, Omega stable from time 0";
      sc_default_n = 3;
      sc_build =
        (fun ~n ~seed ~deadline stack ->
           { (Builder.create ~seed ~n ~deadline stack) with
             Builder.omega = Some (oracle 0) }) };
    { sc_name = "late-omega";
      sc_doc = "failure-free, Omega stabilizes at deadline/3 (self-trust before)";
      sc_default_n = 3;
      sc_build =
        (fun ~n ~seed ~deadline stack ->
           { (Builder.create ~seed ~n ~deadline stack) with
             Builder.omega = Some (oracle (deadline / 3)) }) };
    { sc_name = "partition";
      sc_doc = "two blocks with per-block leaders, healing at deadline/3";
      sc_default_n = 5;
      sc_build =
        (fun ~n ~seed ~deadline stack ->
           let heal = deadline / 3 in
           let left = List.filter (fun p -> p < (n + 1) / 2) (Types.all_procs n) in
           let right = List.filter (fun p -> p >= (n + 1) / 2) (Types.all_procs n) in
           { (Builder.create ~seed ~n ~deadline stack) with
             Builder.plan =
               [ Harness.Adversity.Partition
                   { left; from_time = 5; until_time = heal } ];
             omega =
               Some (oracle ~pre:(Detectors.Omega.Blockwise [ left; right ]) heal)
           }) };
    { sc_name = "minority";
      sc_doc = "all but two processes crash at deadline/4 (no correct majority)";
      sc_default_n = 5;
      sc_build =
        (fun ~n ~seed ~deadline stack ->
           { (Builder.create ~seed ~n ~deadline stack) with
             Builder.plan =
               List.filter_map
                 (fun p ->
                    if p >= 2 then
                      Some (Harness.Adversity.Crash { proc = p; at = deadline / 4 })
                    else None)
                 (Types.all_procs n);
             omega = Some (oracle 0) }) };
    { sc_name = "elected";
      sc_doc = "no oracle: heartbeat-based leader election, leader crashes mid-run";
      sc_default_n = 4;
      sc_build =
        (fun ~n ~seed ~deadline stack ->
           { (Builder.create ~seed
                ~delay:(Builder.Uniform { min_d = 1; max_d = 3 })
                ~n ~deadline stack)
             with
             Builder.plan =
               [ Harness.Adversity.Crash { proc = 0; at = deadline / 2 } ];
             omega = Some (Harness.Stacks.Elected { initial_timeout = 6 }) })
    };
  ]

let find_scenario name = List.find_opt (fun s -> s.sc_name = name) scenarios

let impls =
  [ ("alg5", Builder.Etob Harness.Stacks.Algorithm_5);
    ("paxos", Builder.Etob Harness.Stacks.Paxos_baseline);
    ("alg1", Builder.Etob Harness.Stacks.Algorithm_1_over_4);
    ("gossip", Builder.Gossip) ]

(* ------------------------------------------------------------------ *)
(* The shared option decoder                                           *)
(* ------------------------------------------------------------------ *)

(* The catalogue's workload policy: [posts] explicit messages spread over
   half the horizon, or 3 per process at the default cadence. *)
let workload_of ~n ~deadline ~posts =
  if posts > 0 then
    Builder.Posts
      { count = posts; from_time = 8; every = max 2 (deadline / (2 * posts)) }
  else
    Builder.Posts
      { count = 3 * n; from_time = 8; every = max 2 (deadline / (6 * n)) }

(* Decode one builder from either a spec file (which wins outright — it
   carries its own base, stack, workload and plan) or the scenario/impl
   flag catalogue, whose values get the bounds a spec file's get.  Every
   run-shaped subcommand goes through here. *)
let decode ~spec ~scenario_name ~impl_name ~n ~seed ~deadline ~posts =
  match spec with
  | Some path -> Builder.read path
  | None ->
    (match (find_scenario scenario_name, List.assoc_opt impl_name impls) with
     | None, _ -> Error ("unknown scenario " ^ scenario_name)
     | _, None -> Error ("unknown implementation " ^ impl_name)
     | Some sc, Some stack ->
       let n = if n = 0 then sc.sc_default_n else n in
       Builder.validate
         { (sc.sc_build ~n ~seed ~deadline stack) with
           Builder.workload = workload_of ~n ~deadline ~posts })

(* --- the shared flags, declared once --- *)

let spec_arg =
  let doc =
    "Load the run from a builder spec file ($(b,ecsim-spec v1)).  The spec \
     carries its own base, stack, workload and adversity plan, so it \
     overrides $(b,--scenario)/$(b,--impl)/$(b,-n)/$(b,--seed)/\
     $(b,--deadline)/$(b,--posts)."
  in
  Arg.(value & opt (some string) None & info [ "spec" ] ~docv:"FILE" ~doc)

let scenario_arg =
  let doc = "Scenario name (see $(b,ecsim list))." in
  Arg.(value & opt string "stable" & info [ "scenario"; "s" ] ~docv:"NAME" ~doc)

let impl_arg =
  let doc = "Broadcast implementation: alg5, paxos, alg1 or gossip." in
  Arg.(value & opt string "alg5" & info [ "impl"; "i" ] ~docv:"IMPL" ~doc)

let n_arg =
  let doc = "Number of processes (0 = scenario default)." in
  Arg.(value & opt int 0 & info [ "n" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "Random seed." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let deadline_arg =
  let doc = "Run horizon in ticks." in
  Arg.(value & opt int 240 & info [ "deadline"; "d" ] ~docv:"TICKS" ~doc)

let posts_arg =
  let doc = "Number of broadcast messages in the workload (0 = default)." in
  Arg.(value & opt int 0 & info [ "posts" ] ~docv:"COUNT" ~doc)

let verbose_arg =
  let doc = "Print the full input/output trace." in
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc)

let trace_out_arg =
  let doc =
    "Stream the run's event trace to this file: the framed, CRC-checksummed \
     binary format if its name ends in $(b,.bin), otherwise $(b,jsonl) (one \
     JSON object per event line).  A binary trace additionally embeds the \
     run's spec record, so it replays with $(b,ecsim explore --replay FILE)."
  in
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)

let timeline_arg =
  let doc = "Print an ASCII timeline of the run." in
  Arg.(value & flag & info [ "timeline"; "t" ] ~doc)

(* One cmdliner term producing the decoded builder: the per-subcommand
   flag wiring that used to be copied into run/check/sweep lives here
   exactly once. *)
let builder_term =
  let combine spec scenario_name impl_name n seed deadline posts =
    decode ~spec ~scenario_name ~impl_name ~n ~seed ~deadline ~posts
  in
  Term.(const combine $ spec_arg $ scenario_arg $ impl_arg $ n_arg $ seed_arg
        $ deadline_arg $ posts_arg)

(* Rebase a decoded builder onto another engine seed (sweep). *)
let with_seed b seed = { b with Builder.base = { b.Builder.base with seed } }

(* ------------------------------------------------------------------ *)
(* Commands                                                            *)
(* ------------------------------------------------------------------ *)

let print_report setup trace ~verbose =
  if verbose then begin
    print_endline "--- trace ---";
    List.iter (fun e -> Format.printf "%a@." Trace.pp_entry e) (Trace.entries trace);
    print_endline "--- end trace ---"
  end;
  let run = Properties.etob_run_of_trace setup.Harness.Stacks.pattern trace in
  let report = Properties.etob_report run in
  Format.printf "pattern: %a@." Failures.pp setup.Harness.Stacks.pattern;
  Format.printf "messages sent: %d, delivered: %d, dropped: %d@."
    (Trace.sent trace) (Trace.delivered trace) (Trace.dropped trace);
  List.iter
    (fun p ->
       Format.printf "final d_p%d (%d msgs): %a@." p
         (List.length (Properties.final_d run p))
         App_msg.pp_seq (Properties.final_d run p))
    (Failures.correct setup.Harness.Stacks.pattern);
  Format.printf "%a@." Properties.pp_etob_report report;
  (match Harness.Stacks.omega_stabilization setup with
   | Some tau -> Format.printf "tau_Omega=%d, measured convergence tau=%d@." tau
                   (Properties.etob_convergence_time report)
   | None -> Format.printf "measured convergence tau=%d@."
               (Properties.etob_convergence_time report));
  report

(* Run a decoded builder and report: shared by run and check.  The
   builder's own checkers (spec files may carry them) are evaluated too,
   and their violations printed. *)
let execute_report b ~verbose ~timeline =
  let setup = Builder.setup_of b in
  let o = Builder.run ~digest:true b in
  let trace = match o.Builder.trace with Some t -> t | None -> assert false in
  if timeline then
    print_string (Harness.Timeline.render ~pattern:setup.Harness.Stacks.pattern trace);
  let report = print_report setup trace ~verbose in
  List.iter (fun v -> Format.printf "spec violation: %s@." v) o.Builder.violations;
  Format.printf "trace digest %s@." o.Builder.digest;
  (report, o)

(* --- list --- *)

let list_cmd =
  let doc = "List the available scenarios and implementations." in
  let run () =
    print_endline "scenarios:";
    List.iter (fun s -> Printf.printf "  %-12s %s\n" s.sc_name s.sc_doc) scenarios;
    print_endline "implementations:";
    List.iter (fun (name, stack) ->
        Printf.printf "  %-12s %s\n" name
          (match stack with
           | Builder.Etob Harness.Stacks.Algorithm_5 ->
             "ETOB directly from Omega (Algorithm 5)"
           | Builder.Etob Harness.Stacks.Paxos_baseline ->
             "strong TOB from repeated consensus"
           | Builder.Etob Harness.Stacks.Algorithm_1_over_4 ->
             "ETOB through the EC transformation (Algorithms 1 + 4)"
           | _ ->
             "leaderless gossip ordering (no Omega; the negative baseline)"))
      impls
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

(* --- run --- *)

let run_cmd =
  let doc = "Run a scenario (or a spec file) and print the delivered sequences and the property report." in
  let run builder verbose timeline trace_out =
    match builder with
    | Error msg -> `Error (false, msg)
    | Ok b ->
      (match trace_out with
       | None -> ignore (execute_report b ~verbose ~timeline)
       | Some path ->
         let binary = Filename.check_suffix path ".bin" in
         let format = if binary then Builder.Binary else Builder.Jsonl in
         let _, o =
           execute_report { b with Builder.trace_out = Some (path, format) }
             ~verbose ~timeline
         in
         (* A binary trace becomes a self-contained replay unit by
            appending the run's spec record — when the builder is
            declarative enough to have one. *)
         if binary then begin
           try
             Builder.append_binary_spec path ~digest:o.Builder.digest
               ~violations:o.Builder.violations b
           with Invalid_argument _ ->
             Format.printf "note: run not serializable; %s has no spec record@." path
         end;
         Format.printf "trace written to %s (%s)@." path
           (if binary then "bin" else "jsonl"));
      `Ok ()
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(ret (const run $ builder_term $ verbose_arg $ timeline_arg $ trace_out_arg))

(* --- check --- *)

let check_cmd =
  let doc =
    "Run a scenario (or a spec file) and exit non-zero if any ETOB \
     property — or any checker the spec carries — is violated."
  in
  let run builder verbose =
    match builder with
    | Error msg -> `Error (false, msg)
    | Ok b ->
      let report, o = execute_report b ~verbose ~timeline:false in
      if Properties.etob_base_ok report
      && report.Properties.causal_order.Properties.ok
      && o.Builder.violations = []
      then begin print_endline "CHECK PASSED"; `Ok () end
      else `Error (false, "property violations found")
  in
  Cmd.v (Cmd.info "check" ~doc)
    Term.(ret (const run $ builder_term $ verbose_arg))

(* --- sweep --- *)

(* Everything a worker domain sends back per seed: plain data, no shared
   state. *)
type sweep_outcome = {
  sw_ok : bool;
  sw_tau : int;
  sw_sent : int;
  sw_delivered : int;
  sw_dropped : int;
  sw_latency : int array array;  (* per destination process *)
}

let sweep_cmd =
  let doc =
    "Run one scenario (or spec file) under a range of seeds in parallel \
     (one run per seed, fanned over OCaml domains) and print aggregated \
     verdicts and latency histograms."
  in
  let seeds_arg =
    let doc = "Number of seeds to sweep (base seed up to base+count-1)." in
    Arg.(value & opt int 64 & info [ "seeds" ] ~docv:"COUNT" ~doc)
  in
  let domains_arg =
    let doc = "Worker domains (0 = pick from the hardware)." in
    Arg.(value & opt int 0 & info [ "domains"; "j" ] ~docv:"D" ~doc)
  in
  let run builder seeds domains =
    match builder with
    | Error msg -> `Error (false, msg)
    | Ok b ->
      let n = b.Builder.base.n in
      let base_seed = b.Builder.base.seed in
      let domains =
        if domains > 0 then domains else Harness.Sweep.default_domains ()
      in
      let run_one ~seed =
        (* The outcome's trace feeds the property checkers; a counters sink
           beside it feeds the latency histograms. *)
        let c = Sink.counters ~n in
        let b =
          { (with_seed b seed) with
            Builder.checkers = [];
            sink = Some (Sink.counters_sink c) }
        in
        let trace = Option.get (Builder.run b).Builder.trace in
        let pattern = (Builder.setup_of b).Harness.Stacks.pattern in
        let run = Properties.etob_run_of_trace pattern trace in
        let report = Properties.etob_report run in
        { sw_ok =
            Properties.etob_base_ok report
            && report.Properties.causal_order.Properties.ok;
          sw_tau = Properties.etob_convergence_time report;
          sw_sent = Trace.sent trace;
          sw_delivered = Trace.delivered trace;
          sw_dropped = Trace.dropped trace;
          sw_latency = Array.init n (Sink.latencies c) }
      in
      let seed_list = Harness.Sweep.seed_range ~base:base_seed ~count:seeds in
      let results = Harness.Sweep.map ~domains ~seeds:seed_list run_one in
      let outcomes = List.map (fun r -> r.Harness.Sweep.value) results in
      Format.printf "sweep: stack=%s n=%d seeds=%d..%d domains=%d@."
        (Builder.stack_name b.Builder.stack) n base_seed
        (base_seed + seeds - 1) domains;
      let verdicts =
        Harness.Sweep.verdicts results ~ok:(fun o -> o.sw_ok)
      in
      Format.printf "verdicts: %a@." Harness.Sweep.pp_verdicts verdicts;
      (match
         Harness.Sweep.mean_stddev
           (List.map (fun o -> float_of_int o.sw_tau) outcomes)
       with
       | Some (mean, stddev) ->
         Format.printf "convergence tau: mean=%.1f stddev=%.1f@." mean stddev
       | None -> ());
      let total f = List.fold_left (fun acc o -> acc + f o) 0 outcomes in
      Format.printf "messages: sent=%d delivered=%d dropped=%d@."
        (total (fun o -> o.sw_sent)) (total (fun o -> o.sw_delivered))
        (total (fun o -> o.sw_dropped));
      (match
         Harness.Sweep.merged_latency_stats
           (List.concat_map (fun o -> Array.to_list o.sw_latency) outcomes)
       with
       | Some s -> Format.printf "delivery latency (all procs): %a@." Harness.Stats.pp s
       | None -> ());
      List.iter
        (fun p ->
           match
             Harness.Sweep.merged_latency_stats
               (List.map (fun o -> o.sw_latency.(p)) outcomes)
           with
           | Some s -> Format.printf "  p%d: %a@." p Harness.Stats.pp s
           | None -> Format.printf "  p%d: no deliveries@." p)
        (Types.all_procs n);
      if verdicts.Harness.Sweep.failed_seeds = [] then `Ok ()
      else `Error (false, "property violations in sweep")
  in
  Cmd.v (Cmd.info "sweep" ~doc)
    Term.(ret (const run $ builder_term $ seeds_arg $ domains_arg))

(* --- explore --- *)

let pp_outcome (o : Builder.outcome) =
  let plan = o.Builder.builder.Builder.plan in
  Format.printf "%s (%d adversities):@.%a@."
    (if o.Builder.violations = [] then "plan" else "violating plan")
    (Harness.Adversity.size plan) Harness.Adversity.pp plan;
  List.iter (fun v -> Format.printf "  violation: %s@." v) o.Builder.violations;
  Format.printf "engine seed %d, trace digest %s@."
    o.Builder.builder.base.seed
    (if o.Builder.digest = "" then "(run raised)" else o.Builder.digest)

let mkdirs dir =
  let rec go d =
    if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  go dir

(* The acceptance gate, CI-sized: the faithful Algorithm 5 (crash-stop,
   crash-recovery, and anti-entropy under the watchdog) survives the whole
   budget clean, and exploration finds every seeded mutant — protocol
   bugs, the recovery-path amnesia bug and the skip-digest bug — shrinks
   the finding to at most 3 adversities, and replays it from its spec
   text.  The first finding additionally replays from a binary trace
   artifact.  When [artifacts] is set, every shrunk finding (and any
   unexpected faithful flag) is written there as a .spec file, so CI can
   upload them on failure. *)
let explore_smoke ~domains ~budget ~seed ~artifacts =
  let artifact name o =
    match artifacts with
    | None -> ()
    | Some dir ->
      mkdirs dir;
      let path = Filename.concat dir name in
      Builder.write_finding path o;
      Format.printf "  artifact: %s@." path
  in
  let explore t =
    Builder.explore ~domains t ~seed ~budget ~max_adversities:4
  in
  let clean_gate label t =
    Format.printf "smoke: faithful %s over %d plans...@." label budget;
    let r = explore t in
    match r.Builder.found with
    | Some o ->
      pp_outcome o;
      artifact ("faithful-" ^ label ^ ".spec") o;
      Error
        (Printf.sprintf "faithful %s was flagged: explorer or protocol bug"
           label)
    | None ->
      Format.printf "  clean (%d plans)@." r.Builder.plans_run;
      Ok ()
  in
  let size (o : Builder.outcome) =
    Harness.Adversity.size o.Builder.builder.Builder.plan
  in
  let check_mutant (name, t) =
    let r = explore t in
    match r.Builder.found with
    | None ->
      Error
        (Printf.sprintf "mutant %s: no violation within %d plans" name budget)
    | Some o ->
      let s = Builder.shrink t o in
      Format.printf
        "smoke: mutant %-22s found at plan %d, shrunk %d -> %d adversities@."
        name (r.Builder.plans_run - 1) (size o) (size s);
      artifact ("mutant-" ^ name ^ ".spec") s;
      if size s > 3 then
        Error
          (Printf.sprintf "mutant %s: shrunk plan still has %d adversities"
             name (size s))
      else
        Result.map_error
          (Printf.sprintf "mutant %s: replay: %s" name)
          (Result.map (fun _ -> s) (Builder.replay (Builder.finding_text s)))
  in
  (* The binary-artifact leg: the first finding (already replayed from its
     spec text) is streamed to a framed binary trace with its spec record
     embedded, and must replay from the artifact alone to the same
     digest. *)
  let binary_gate name (s : Builder.outcome) =
    Format.printf "smoke: builder-spec flow (mutant %s)...@." name;
    Format.printf "  spec roundtrip reproduced digest %s@." s.Builder.digest;
    let bin_path, keep =
      match artifacts with
      | Some dir ->
        mkdirs dir;
        (Filename.concat dir ("spec-flow-" ^ name ^ ".trace.bin"), true)
      | None -> (Filename.temp_file "ecsim-smoke" ".trace.bin", false)
    in
    Builder.write_finding bin_path s;
    if keep then Format.printf "  artifact: %s@." bin_path;
    let verdict =
      match Result.bind (Builder.binary_spec bin_path) Builder.replay with
      | Error msg -> Error ("binary artifact: " ^ msg)
      | Ok o ->
        Format.printf "  binary artifact reproduced digest %s@."
          o.Builder.digest;
        Ok ()
    in
    if not keep then (try Sys.remove bin_path with Sys_error _ -> ());
    verdict
  in
  let ( let* ) = Result.bind in
  let rec all = function
    | [] -> Ok ()
    | m :: rest ->
      let* _ = check_mutant m in
      all rest
  in
  let alg5 = Harness.Stacks.Algorithm_5 in
  let faithful = Builder.template alg5 in
  let* () = clean_gate "alg5" faithful in
  let etob_mutants =
    List.map
      (fun m ->
         (Etob_omega.mutation_name m, { faithful with Builder.mutation = Some m }))
      Etob_omega.all_mutations
  in
  let* first = check_mutant (List.hd etob_mutants) in
  let* () = all (List.tl etob_mutants) in
  (* Recovery gate: same story under crash-recovery adversities. *)
  let recovering = Builder.template ~recovery:true alg5 in
  let* () = clean_gate "alg5+recovery" recovering in
  let* () =
    all
      (List.map
         (fun m ->
            ( Recoverable.mutation_name m,
              { recovering with Builder.rmutation = Some m } ))
         Recoverable.all_mutations)
  in
  (* Partition liveness gate: the anti-entropy stack under the watchdog.
     Generated plans include message-LOSING partitions (split-brain,
     minority isolation, one-way links, flapping bridges) that heal far
     past the last post — only the digest exchange can repair them, and
     the watchdog checks that every correct process actually converges.
     The faithful stack must survive clean; the skip-digest mutant (the
     layer that never advertises) must be caught. *)
  let partitioned = Builder.template ~ae:true ~watchdog:true alg5 in
  let* () = clean_gate "alg5+ae+watchdog" partitioned in
  let* () =
    all
      (List.map
         (fun m ->
            ( Anti_entropy.mutation_name m,
              { partitioned with Builder.ae_mutation = Some m } ))
         Anti_entropy.all_mutations)
  in
  let* () = binary_gate (fst (List.hd etob_mutants)) first in
  print_endline "SMOKE PASSED";
  Ok ()

(* Replay a finding file: spec text, or a binary trace embedding its spec
   record — both through [Builder.replay]. *)
let replay_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> `Error (false, msg)
  | content ->
    let text =
      if String.starts_with ~prefix:"ECTRACE" content then begin
        Format.printf "replaying embedded spec of %s@." path;
        Builder.binary_spec path
      end
      else Ok content
    in
    (match Result.bind text Builder.replay with
     | Error msg -> `Error (false, "replay: " ^ msg)
     | Ok o ->
       pp_outcome o;
       print_endline "REPLAY REPRODUCED";
       `Ok ())

(* A mutant name resolves in the Algorithm-5 namespace first, then the
   recovery path, then anti-entropy. *)
let parse_mutant = function
  | None -> Ok (None, None, None)
  | Some name ->
    (match
       ( Etob_omega.mutation_of_string name,
         Recoverable.mutation_of_string name,
         Anti_entropy.mutation_of_string name )
     with
     | Some m, _, _ -> Ok (Some m, None, None)
     | None, Some m, _ -> Ok (None, Some m, None)
     | None, None, Some m -> Ok (None, None, Some m)
     | None, None, None ->
       Error
         (Printf.sprintf "unknown mutant %s (known: %s)" name
            (String.concat ", "
               (List.map Etob_omega.mutation_name Etob_omega.all_mutations
                @ List.map Recoverable.mutation_name Recoverable.all_mutations
                @ List.map Anti_entropy.mutation_name
                    Anti_entropy.all_mutations))))

(* The flags assemble a template, bounds-checked like spec text: a
   recovery mutant implies the recovery stack, an anti-entropy mutant the
   digest layer. *)
let template_of_flags ~impl_name ~n ~deadline ~posts ~mutant ~recovery ~ae
    ~watchdog =
  match List.assoc_opt impl_name impls with
  | Some (Builder.Etob impl) ->
    Result.bind (parse_mutant mutant) (fun (mutation, rmutation, ae_mutation) ->
        let t =
          Builder.template
            ?n:(if n = 0 then None else Some n)
            ~deadline
            ?posts:(if posts = 0 then None else Some posts)
            ~recovery:(recovery || Option.is_some rmutation)
            ~ae:(ae || Option.is_some ae_mutation)
            ~watchdog impl
        in
        Builder.validate { t with Builder.mutation; rmutation; ae_mutation })
  | _ -> Error ("unknown implementation for explore: " ^ impl_name)

let mutant_label (t : Builder.t) =
  match (t.Builder.mutation, t.Builder.rmutation, t.Builder.ae_mutation) with
  | Some m, _, _ -> Etob_omega.mutation_name m
  | None, Some m, _ -> Recoverable.mutation_name m
  | None, None, Some m -> Anti_entropy.mutation_name m
  | None, None, None -> "none"

let explore_cmd =
  let doc =
    "Adversarially explore a protocol stack: enumerate bounded adversity \
     plans (crashes, partitions, delay spikes, drops, duplicates, leader \
     flapping), flag property violations, shrink findings to a minimal \
     plan and write deterministic spec files."
  in
  let plans_arg =
    let doc = "Exploration budget: number of adversity plans to run." in
    Arg.(value & opt int 500 & info [ "plans" ] ~docv:"COUNT" ~doc)
  in
  let max_adv_arg =
    let doc = "Maximum adversities per generated plan." in
    Arg.(value & opt int 4 & info [ "max-adversities" ] ~docv:"K" ~doc)
  in
  let mutant_arg =
    let doc =
      "Seed a known bug: skip-dependency-wait, forget-promote-prefix, \
       drop-graph-union or disable-stale-guard (Algorithm 5), \
       skip-log-replay (the crash-recovery path; implies $(b,--recovery)), \
       or skip-digest (the anti-entropy layer; implies $(b,--ae))."
    in
    Arg.(value & opt (some string) None & info [ "mutant" ] ~docv:"NAME" ~doc)
  in
  let recovery_arg =
    let doc =
      "Explore the crash-recovery stack: Algorithm 5 under the durable \
       write-ahead log and retransmission links, with downtime windows \
       and disk faults among the generated adversities."
    in
    Arg.(value & flag & info [ "recovery" ] ~doc)
  in
  let ae_arg =
    let doc =
      "Stack the anti-entropy digest layer beside Algorithm 5 and admit \
       message-losing partitions (split-brain, minority isolation, one-way \
       links, flapping bridges) among the generated adversities."
    in
    Arg.(value & flag & info [ "ae" ] ~doc)
  in
  let watchdog_arg =
    let doc =
      "Check liveness, not just safety: after each plan's adversities \
       settle, every correct process must reach the converged state within \
       the computed progress bound or the plan is flagged."
    in
    Arg.(value & flag & info [ "watchdog" ] ~doc)
  in
  let artifacts_arg =
    let doc =
      "In smoke mode, write every shrunk finding as a spec file into this \
       directory (created if needed) so CI can upload them on failure."
    in
    Arg.(value & opt (some string) None & info [ "artifacts" ] ~docv:"DIR" ~doc)
  in
  let domains_arg =
    let doc =
      "Worker domains: plans run in chunks of 4 per domain via the sweep \
       layer.  The finding and its plan index do not depend on it."
    in
    Arg.(value & opt int 1 & info [ "domains"; "j" ] ~docv:"D" ~doc)
  in
  let out_arg =
    let doc =
      "Write the (shrunk) finding to this file: a framed binary trace \
       (events plus embedded spec record) for a $(b,.bin) suffix, \
       builder-spec text otherwise."
    in
    Arg.(value & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE" ~doc)
  in
  let replay_arg =
    let doc =
      "Replay a spec or binary trace file (format auto-detected) instead \
       of exploring."
    in
    Arg.(value & opt (some string) None & info [ "replay" ] ~docv:"FILE" ~doc)
  in
  let smoke_arg =
    let doc =
      "Acceptance mode: the faithful Algorithm 5 must survive the budget \
       clean and every seeded mutant must be found, shrunk to <= 3 \
       adversities and replayed deterministically from its spec text (one \
       finding also from a binary trace artifact)."
    in
    Arg.(value & flag & info [ "smoke" ] ~doc)
  in
  let explore_spec_arg =
    let doc =
      "Explore a builder spec file as written: base, stack, workload, \
       mutations and checkers come from the spec, which must have a shape \
       the plan generator can be fair to (an ETOB stack, not \
       $(b,gossip); an $(b,auto) workload; no $(b,omega) or $(b,service) \
       clause).  Its plan and seed are replaced per plan index; its \
       $(b,budget) header, when present, overrides $(b,--plans)."
    in
    Arg.(value & opt (some string) None & info [ "spec" ] ~docv:"FILE" ~doc)
  in
  let run impl_name n seed deadline posts plans max_adv mutant recovery ae
      watchdog domains out replay smoke artifacts spec =
    match replay with
    | Some path -> replay_file path
    | None when smoke ->
      (match explore_smoke ~domains ~budget:plans ~seed ~artifacts with
       | Ok () -> `Ok ()
       | Error msg -> `Error (false, msg))
    | None ->
      let target =
        match spec with
        | Some path ->
          (match Builder.read path with
           | Error msg -> Error ("spec parse: " ^ msg)
           | Ok b ->
             Result.map
               (fun t -> (t, Option.value b.Builder.budget ~default:plans))
               (Builder.explorable b))
        | None ->
          Result.map
            (fun t -> (t, plans))
            (template_of_flags ~impl_name ~n ~deadline ~posts ~mutant
               ~recovery ~ae ~watchdog)
      in
      (match target with
       | Error msg -> `Error (false, msg)
       | Ok (t, plans) ->
         Format.printf
           "explore: stack=%s mutant=%s watchdog=%b n=%d plans=%d \
            max-adversities=%d domains=%d@."
           (Builder.stack_name t.Builder.stack)
           (mutant_label t)
           (List.exists
              (function Builder.Watchdog _ -> true | _ -> false)
              t.Builder.checkers)
           t.Builder.base.n plans max_adv domains;
         let r =
           Builder.explore ~domains t ~seed ~budget:plans
             ~max_adversities:max_adv
         in
         (match r.Builder.found with
          | None ->
            Format.printf "clean: %d plans, no violation@." r.Builder.plans_run;
            `Ok ()
          | Some o ->
            Format.printf "violation at plan %d; shrinking...@."
              (r.Builder.plans_run - 1);
            let s = Builder.shrink t o in
            pp_outcome s;
            Option.iter
              (fun path ->
                 Builder.write_finding path s;
                 Format.printf "finding written to %s@." path)
              out;
            `Error (false, "property violations found")))
  in
  Cmd.v (Cmd.info "explore" ~doc)
    Term.(ret (const run $ impl_arg $ n_arg $ seed_arg $ deadline_arg
               $ posts_arg $ plans_arg $ max_adv_arg $ mutant_arg
               $ recovery_arg $ ae_arg $ watchdog_arg $ domains_arg
               $ out_arg $ replay_arg $ smoke_arg $ artifacts_arg
               $ explore_spec_arg))

(* --- soak --- *)

let soak_cmd =
  let doc =
    "Run a crash-safe soak campaign: long randomized adversity \
     exploration across legs, with per-run event budgets and monotonic \
     wall-clock deadlines (stuck runs are poisoned, not fatal), worker \
     quarantine with auto-shrunk replayable repros, a framed CRC32 \
     campaign journal ($(b,--resume) continues an interrupted campaign \
     deterministically), and a degradation ladder (halve concurrency, \
     skip poisoned seeds within a logged budget, only then abort).  \
     Exit 0 clean, 1 reproducible findings, 2 on unshrinkable findings \
     or an aborted campaign."
  in
  let legs_arg =
    let doc =
      "Comma-separated campaign legs (named exploration templates): alg5, \
       ae-watchdog, ae-watchdog-recovery."
    in
    Arg.(value & opt string "ae-watchdog,ae-watchdog-recovery"
         & info [ "legs" ] ~docv:"NAMES" ~doc)
  in
  let budget_arg =
    let doc = "Adversity plans per leg." in
    Arg.(value & opt int 200 & info [ "budget" ] ~docv:"PLANS" ~doc)
  in
  let seed_arg =
    let doc = "Base engine seed (plan i runs under seed+i)." in
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let max_adv_arg =
    let doc = "Maximum adversities per generated plan." in
    Arg.(value & opt int 4 & info [ "max-adversities" ] ~docv:"K" ~doc)
  in
  let event_budget_arg =
    let doc = "Per-run event budget before the guard declares the run stuck." in
    Arg.(value & opt int 200_000 & info [ "event-budget" ] ~docv:"EVENTS" ~doc)
  in
  let deadline_arg =
    let doc =
      "Per-run wall-clock deadline in milliseconds (monotonic; a wedged \
       run is poisoned when it exceeds this)."
    in
    Arg.(value & opt int 10_000 & info [ "deadline-per-run" ] ~docv:"MS" ~doc)
  in
  let max_findings_arg =
    let doc = "Stop the campaign after this many quarantined findings." in
    Arg.(value & opt int 16 & info [ "max-findings" ] ~docv:"N" ~doc)
  in
  let max_poisoned_arg =
    let doc =
      "Coverage-sacrifice budget: poisoned seeds tolerated before the \
       campaign aborts."
    in
    Arg.(value & opt int 8 & info [ "max-poisoned" ] ~docv:"N" ~doc)
  in
  let domains_arg =
    let doc = "Worker domains (0 = pick from the hardware)." in
    Arg.(value & opt int 0 & info [ "j"; "domains" ] ~docv:"D" ~doc)
  in
  let artifacts_arg =
    let doc = "Directory for the campaign journal and shrunk .spec repros." in
    Arg.(value & opt string "_artifacts/soak"
         & info [ "artifacts" ] ~docv:"DIR" ~doc)
  in
  let resume_arg =
    let doc =
      "Resume an interrupted campaign from its journal (config, cursor, \
       findings and poisoned seeds are read back; a torn tail is \
       compacted away).  Other campaign flags are ignored."
    in
    Arg.(value & opt (some string) None & info [ "resume" ] ~docv:"FILE" ~doc)
  in
  let run legs budget seed max_adversities event_budget deadline_ms
      max_findings max_poisoned domains artifacts resume =
    let domains = if domains <= 0 then None else Some domains in
    let on_progress ~done_ ~total =
      Format.printf "soak: %d/%d jobs@." done_ total
    in
    let finish { Soak.Runner.config; state; journal } =
      Format.printf "%a" (Soak.Report.pp config) state;
      Format.printf "journal: %s@." journal;
      match Soak.Report.exit_code (Soak.Report.verdict state) with
      | 0 -> `Ok ()
      | code -> Stdlib.exit code
    in
    match resume with
    | Some journal ->
      (match Soak.Runner.resume ?domains ~on_progress ~journal () with
       | Error e -> `Error (false, e)
       | Ok o -> finish o)
    | None ->
      let leg_results =
        List.map Soak.Campaign.leg_of_name
          (String.split_on_char ',' legs |> List.filter (fun s -> s <> ""))
      in
      (match
         List.find_map
           (function Error e -> Some e | Ok _ -> None)
           leg_results
       with
       | Some e -> `Error (false, e)
       | None ->
         let legs =
           List.filter_map
             (function Ok l -> Some l | Error _ -> None)
             leg_results
         in
         if legs = [] then `Error (false, "no campaign legs given")
         else begin
           let config =
             { Soak.Campaign.legs;
               budget;
               seed;
               max_adversities;
               event_budget;
               deadline_ms;
               max_findings;
               max_poisoned;
               artifacts }
           in
           let journal = Filename.concat artifacts "campaign.journal" in
           match Soak.Runner.start ?domains ~on_progress ~journal config with
           | Error e -> `Error (false, e)
           | Ok o -> finish o
         end)
  in
  Cmd.v (Cmd.info "soak" ~doc)
    Term.(ret (const run $ legs_arg $ budget_arg $ seed_arg $ max_adv_arg
               $ event_budget_arg $ deadline_arg $ max_findings_arg
               $ max_poisoned_arg $ domains_arg $ artifacts_arg $ resume_arg))

(* --- service --- *)

(* The closed-loop client service layer (DESIGN.md §16).  Without [--spec]
   this runs experiment E22 — ETOB vs Paxos under the crash+partition
   schedule — and enforces its gates (availability gap, bounded retry
   amplification, zero duplicate applies, replay determinism), writing
   the latency artifacts and BENCH_service.json, with every verdict,
   before a failing gate fails the command.  [--smoke] additionally
   replays QCheck-generated client populations and demands byte-identical
   digests; [--spec FILE] runs the [service ...] population of a builder
   spec file instead. *)
let service_cmd =
  let doc =
    "Run the closed-loop client service layer: the E22 availability gates, \
     or the service population of a spec file."
  in
  let smoke_arg =
    let doc =
      "CI smoke gate: E22 plus determinism checks over generated specs."
    in
    Arg.(value & flag & info [ "smoke" ] ~doc)
  in
  let seed_arg =
    let doc = "Engine seed." in
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let spec_arg =
    let doc =
      "Run the service population of this builder spec file (needs a \
       'service ...' line) instead of E22."
    in
    Arg.(value & opt (some file) None & info [ "spec" ] ~docv:"FILE" ~doc)
  in
  let artifacts_arg =
    let doc = "Directory for BENCH_service.json and the latency artifacts." in
    Arg.(value & opt string "_artifacts/service"
         & info [ "artifacts" ] ~docv:"DIR" ~doc)
  in
  let write_histograms dir result =
    mkdirs dir;
    List.iter
      (fun (s : Service.Experiment.side) ->
        let path = Filename.concat dir ("latency_" ^ s.s_name ^ ".json") in
        Out_channel.with_open_text path (fun oc ->
            Out_channel.output_string oc
              (Harness.Record.render (Service.Experiment.histogram s) ^ "\n"));
        Format.printf "wrote %s@." path)
      [ result.Service.Experiment.etob; result.Service.Experiment.paxos ]
  in
  let run_spec_file path =
    let lines = In_channel.with_open_text path In_channel.input_lines in
    match Builder.of_lines lines with
    | Error msg -> `Error (false, msg)
    | Ok b ->
      (match Service.Runner.run_builder b with
       | Error msg -> `Error (false, msg)
       | Ok o ->
         Format.printf "%a@.digest %s  dedup %s@." Service.Metrics.pp
           o.Service.Runner.report o.Service.Runner.digest
           (if o.Service.Runner.dedup_ok then "ok" else "VIOLATED");
         if o.Service.Runner.dedup_ok then `Ok ()
         else `Error (false, "duplicate applies leaked through dedup"))
  in
  (* Generated populations: each sampled spec must replay to the same
     digest on a failure-free stack, never exceed its structural attempt
     budget, and let no duplicate apply through. *)
  let generated_failures ~seed =
    let specs = Service.Experiment.sample_specs ~seed ~count:3 in
    List.concat_map
      (fun spec ->
        let setup =
          { (Harness.Stacks.default ~n:3 ~deadline:120) with
            Harness.Stacks.seed = seed }
        in
        let go () =
          Service.Runner.run ~setup ~spec ~impl:Harness.Stacks.Algorithm_5
        in
        let a = go () in
        let b = go () in
        let budget = 1 + spec.Harness.Service_spec.retries in
        let tag = Harness.Service_spec.to_string spec in
        List.filter_map Fun.id
          [ (if String.equal a.Service.Runner.digest b.Service.Runner.digest
             then None
             else Some (Printf.sprintf "generated [%s]: replay digest diverged" tag));
            (if a.Service.Runner.report.Service.Metrics.max_attempts <= budget
             then None
             else
               Some
                 (Printf.sprintf "generated [%s]: %d attempts exceed budget %d"
                    tag a.Service.Runner.report.Service.Metrics.max_attempts
                    budget));
            (if a.Service.Runner.dedup_ok then None
             else Some (Printf.sprintf "generated [%s]: duplicate applies" tag)) ])
      specs
  in
  let run smoke seed spec artifacts =
    match spec with
    | Some path -> run_spec_file path
    | None ->
      let result = Service.Experiment.run ~seed () in
      let failures =
        if smoke then generated_failures ~seed else []
      in
      List.iter (fun f -> Format.printf "FAIL %s@." f) failures;
      write_histograms artifacts result;
      match Harness.Record.write artifacts result.Service.Experiment.record with
      | exception Failure msg -> `Error (false, msg)
      | () when failures = [] ->
        print_endline "SERVICE GATES PASSED";
        `Ok ()
      | () -> `Error (false, "service smoke failed")
  in
  Cmd.v (Cmd.info "service" ~doc)
    Term.(ret (const run $ smoke_arg $ seed_arg $ spec_arg $ artifacts_arg))

(* --- cht --- *)

let cht_cmd =
  let doc = "Run the CHT reduction: emulate Omega from an EC black box." in
  let crash_arg =
    let doc = "Crash specification, e.g. 1:14 (process 1 crashes at time 14)." in
    let parse s =
      match List.map int_of_string_opt (String.split_on_char ':' s) with
      | [ Some p; Some t ] when p >= 0 && t >= 0 -> Ok (p, t)
      | _ -> Error (`Msg (Printf.sprintf "invalid crash %S, expected P:T" s))
    in
    let crash = Arg.conv (parse, fun ppf (p, t) -> Format.fprintf ppf "%d:%d" p t) in
    Arg.(value & opt (some crash) None & info [ "crash" ] ~docv:"P:T" ~doc)
  in
  let rounds_arg =
    let doc = "Number of emulation rounds." in
    Arg.(value & opt int 5 & info [ "rounds" ] ~docv:"R" ~doc)
  in
  let n_arg =
    let doc = "Number of processes (2 or 3; the tree grows fast)." in
    Arg.(value & opt int 2 & info [ "n" ] ~docv:"N" ~doc)
  in
  let emulate ~n ~rounds pattern =
    let omega =
      Detectors.Omega.make ~pre:(Detectors.Omega.Fixed (n - 1)) pattern
        ~stabilize_at:18
    in
    let sampler p t = Cht.Fd_value.leader (Detectors.Omega.query omega ~self:p ~now:t) in
    let dag = Cht.Dag.build ~pattern ~sampler ~period:4 ~gossip:4 ~rounds:(4 + (2 * rounds)) in
    Format.printf "pattern: %a; adversarial prefix trusts p%d until t=18@."
      Failures.pp pattern (n - 1);
    let per_round =
      Cht.Extraction.emulate ~algo:Cht.Pure.ec_omega ~dag
        ~budget:Cht.Extraction.default_budget ~rounds ~round_horizon:8 ()
    in
    List.iteri
      (fun r outputs ->
         Format.printf "round %d: [%s]@." r
           (String.concat ", " (List.map (fun p -> "p" ^ string_of_int p) outputs)))
      per_round;
    match Cht.Extraction.stabilization ~pattern per_round with
    | Some (r, leader) ->
      Format.printf "stabilized from round %d on p%d (%s)@." r leader
        (if Failures.is_correct pattern leader then "correct" else "FAULTY");
      `Ok ()
    | None -> `Error (false, "did not stabilize within the emulated rounds")
  in
  let run n crash rounds =
    match Failures.of_crashes ~n (Option.to_list crash) with
    | pattern -> emulate ~n ~rounds pattern
    | exception Invalid_argument msg ->
      let crash =
        Option.fold crash ~none:""
          ~some:(fun (p, t) -> Printf.sprintf " --crash %d:%d" p t)
      in
      `Error (false, Printf.sprintf "-n %d%s: %s" n crash msg)
  in
  Cmd.v (Cmd.info "cht" ~doc) Term.(ret (const run $ n_arg $ crash_arg $ rounds_arg))

(* ------------------------------------------------------------------ *)

let () =
  let doc = "simulate eventually consistent replication (PODC 2015 reproduction)" in
  let info = Cmd.info "ecsim" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; run_cmd; check_cmd; sweep_cmd; explore_cmd; soak_cmd;
            service_cmd; cht_cmd ]))
