(* The four workloads, each run as one unit per child process.

   A unit runs its workload once, untraced, timing the call the workload
   is about (the "timed phase"), then checks the outputs outside the
   timed phase.  In trace mode it then rebuilds the same run from the
   public parts of the stack, with every layer boundary wrapped by
   [Tracer], and requires the traced fingerprint to equal the untraced
   one. *)

open Simulator
open Ec_core
module Builder = Harness.Builder
module Stacks = Harness.Stacks

(* What [timed] measures around a unit's timed phase. *)
type measure = {
  setup_ns : int;  (** process CPU time before the timed call *)
  probe_ns : int;  (** CPU time of [probe]: the faster of a run before and after *)
  timed_ns : int;  (** process CPU time of the timed phase *)
  minor_words : float;
  major_words : float;
  major_collections : int;
  top_heap_words : int;  (** right after the timed phase *)
}

type result = {
  measure : measure;
  events : int;  (** engine events ([Trace.steps]) in the timed phase *)
  ops : int;  (** broadcasts, jobs or completed requests *)
  failed : int;
  fingerprint : string;
  errors : string list;  (** failed checks; [[]] when the unit is correct *)
  layers : (string * float * string) list;  (** per-layer metrics (trace mode) *)
}

(* {2 Measuring}

   The timed phase is measured in process CPU time (user + system, from
   getrusage): the runs are single-threaded and CPU-bound, so on an idle
   machine this equals their wall time, and unlike wall time it does not
   count the time the process waits while other processes hold the CPU. *)

let cpu_ns () = int_of_float (Sys.time () *. 1e9)

(* A fixed probe owned by the benchmark, timed next to the workload: no
   repository code and no OCaml allocation, only pseudo-random writes over
   a 256 KB table and reads over a 16 MB one, outside the OCaml heap so
   that [heap_peak_mb] does not see them.  The host this runs on changes
   speed by 10-25% over minutes, in its cores and in its memory system;
   the probe measures that speed, and the end-to-end times are scaled by
   it (see [end_to_end]). *)
let probe_tables =
  lazy
    Bigarray.
      ( Array1.init int c_layout (1 lsl 15) (fun _ -> 0),
        Array1.init int c_layout (1 lsl 21) Fun.id )

let probe () =
  let near, far = Lazy.force probe_tables in
  let t0 = cpu_ns () in
  let x = ref 0x2545F4914F6CDD1D and acc = ref 0 in
  for i = 1 to 2_000_000 do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    let j = !x land ((1 lsl 15) - 1) in
    acc := !acc + Bigarray.Array1.unsafe_get near j;
    Bigarray.Array1.unsafe_set near j (!acc land 0xffff);
    if i land 15 = 0 then
      acc := !acc + Bigarray.Array1.unsafe_get far ((!x lsr 20) land ((1 lsl 21) - 1))
  done;
  ignore (Sys.opaque_identity !acc);
  cpu_ns () - t0

let timed f =
  let setup_ns = cpu_ns () in
  let p0 = probe () in
  let g0 = Gc.quick_stat () in
  let t0 = cpu_ns () in
  let r = f () in
  let timed_ns = cpu_ns () - t0 in
  let g1 = Gc.quick_stat () in
  ( r,
    { setup_ns;
      probe_ns = min p0 (probe ());
      timed_ns;
      minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
      major_words = g1.Gc.major_words -. g0.Gc.major_words;
      major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
      top_heap_words = g1.Gc.top_heap_words } )

(* Wall time of the traced runs' phases, summed over the unit's runs. *)
type phases = {
  ns : int array;  (** setup, run, check, digest *)
  mutable runs : int;
}

let phases () = { ns = Array.make 4 0; runs = 0 }
let p_setup = 0
let p_run = 1
let p_check = 2
let p_digest = 3

let phase ph i f =
  let t0 = Tracer.now () in
  let r = f () in
  ph.ns.(i) <- ph.ns.(i) + (Tracer.now () - t0);
  r

let median_ns f =
  let xs =
    Array.init 5 (fun _ ->
        let t0 = Tracer.now () in
        ignore (Sys.opaque_identity (f ()));
        Tracer.now () - t0)
  in
  Array.sort Int.compare xs;
  xs.(2)

(* Direct calls into the causality graph at the size of the workload's
   history, each the median of 5: the work of one Algorithm-5 [Update]
   on a process one round of posts behind.  Every workload has a history
   of broadcasts with causal dependencies, Paxos included, so the layer
   is priced everywhere. *)
let graph_metrics ~tag msgs =
  let graph_of = List.fold_left Causal_graph.add Causal_graph.empty in
  let m = List.length msgs in
  let lag = max 0 (min (m - 1) 5) in
  let local = graph_of (List.filteri (fun i _ -> i < m - lag) msgs) in
  let full = graph_of msgs in
  let prefix = Causal_graph.linearize (Causal_graph.ready local) ~prefix:[] in
  let ready = Causal_graph.ready full in
  let us f = float (median_ns f) /. 1e3 in
  [ ("causal_graph.size_" ^ tag, float m, "count");
    ( "causal_graph.union_us_" ^ tag,
      us (fun () -> Causal_graph.union local full),
      "us" );
    ("causal_graph.ready_us_" ^ tag, us (fun () -> Causal_graph.ready full), "us");
    ( "causal_graph.linearize_us_" ^ tag,
      us (fun () -> Causal_graph.linearize ready ~prefix),
      "us" ) ]

let graph_layers msgs =
  let half = List.filteri (fun i _ -> 2 * i < List.length msgs) msgs in
  graph_metrics ~tag:"mid" half @ graph_metrics ~tag:"final" msgs

let broadcast_msgs trace =
  List.filter_map
    (function _, _, Etob_intf.Etob_broadcast m -> Some m | _ -> None)
    (Trace.outputs trace)

(* The per-layer metrics of one traced unit.  [m.timed_ns] and
   [traced_ns] cover the same work, so their ratio is the tracing
   overhead; [m] and [events] come from the untraced phase. *)
let layer_metrics ~(totals : Tracer.totals) ~ph ~m ~events ~msgs ~traced_ns =
  let e = float totals.Tracer.events in
  let self k = float totals.Tracer.t_self.(k) in
  let count k = float totals.Tracer.t_count.(k) in
  let ratio a b = if b = 0. then 0. else a /. b in
  let net_calls = count Tracer.k_net_delay +. count Tracer.k_net_fault in
  let runs = float (max 1 ph.runs) in
  let word_bytes = float (Sys.word_size / 8) in
  [ ("engine.events", e, "count");
    ("engine.sends", float totals.Tracer.sends, "count");
    ("engine.self_ns_per_event", (self Tracer.k_run +. self Tracer.k_send) /. e, "ns");
    ("stack.self_ns_per_event", self Tracer.k_node /. e, "ns");
    ("sink.ns_per_event", self Tracer.k_sink /. e, "ns");
    ("net.calls", net_calls, "count");
    ( "net.ns_per_call",
      ratio (self Tracer.k_net_delay +. self Tracer.k_net_fault) net_calls,
      "ns" );
    ( "run.ns_per_event_q1",
      ratio (float totals.Tracer.q1_ns) (float totals.Tracer.q_n),
      "ns" );
    ( "run.ns_per_event_q4",
      ratio (float totals.Tracer.q4_ns) (float totals.Tracer.q_n),
      "ns" );
    ("proto.msgs", count Tracer.k_proto_msg, "count");
    ( "proto.msg_us_mean",
      ratio (self Tracer.k_proto_msg) (count Tracer.k_proto_msg) /. 1e3,
      "us" );
    ( "proto.msg_us_q1",
      ratio (float totals.Tracer.mq1_ns) (float totals.Tracer.mq_n) /. 1e3,
      "us" );
    ( "proto.msg_us_q4",
      ratio (float totals.Tracer.mq4_ns) (float totals.Tracer.mq_n) /. 1e3,
      "us" );
    ( "proto.timer_us_mean",
      ratio (self Tracer.k_proto_timer) (count Tracer.k_proto_timer) /. 1e3,
      "us" );
    ("gc.minor_bytes_per_event", m.minor_words *. word_bytes /. float events, "B");
    ("gc.major_words_per_event", m.major_words /. float events, "words");
    ("gc.major_collections", float m.major_collections, "count") ]
  @ graph_layers msgs
  @ [ ("phase.setup_ms_per_run", float ph.ns.(p_setup) /. 1e6 /. runs, "ms");
      ("phase.run_ms_per_run", float ph.ns.(p_run) /. 1e6 /. runs, "ms");
      ("phase.check_ms_per_run", float ph.ns.(p_check) /. 1e6 /. runs, "ms");
      ("phase.digest_ms_per_run", float ph.ns.(p_digest) /. 1e6 /. runs, "ms");
      ( "trace.overhead_pct",
        100. *. float (traced_ns - m.timed_ns) /. float m.timed_ns,
        "%" ) ]

(* {2 Traced process stacks}

   The same components [Stacks] composes, with the process stack, its
   protocol component and its ctx wrapped.  [Stacks.etob_node] already
   stacks one [post_driver]; so does each rebuild here, exactly once. *)

let traced_etob_node ?mutation setup impl =
  let omega_of = Stacks.omega_module setup in
  fun ctx ->
    let ctx = Tracer.wrap_ctx ctx in
    let omega, omega_node = omega_of ctx in
    let service, proto =
      match (impl : Stacks.etob_impl) with
      | Algorithm_5 ->
        let t, node = Etob_omega.create ?mutation ctx ~omega in
        (Etob_omega.service t, node)
      | Paxos_baseline ->
        let t, node = Consensus.Paxos_tob.create ctx ~omega in
        (Consensus.Paxos_tob.service t, node)
      | Algorithm_1_over_4 -> invalid_arg "traced_etob_node: Algorithm 1 over 4"
    in
    let stack = [ omega_node; Tracer.wrap_proto proto; Stacks.post_driver service ] in
    (Tracer.wrap_node (Engine.stack stack), ())

let traced_ae_node (b : Builder.t) setup =
  let omega_of = Stacks.omega_module setup in
  fun ctx ->
    let ctx = Tracer.wrap_ctx ctx in
    let omega, omega_node = omega_of ctx in
    let t, node = Etob_omega.create ?mutation:b.Builder.mutation ctx ~omega in
    let _, ae_node =
      Anti_entropy.create ?config:b.Builder.ae_config
        ?mutation:b.Builder.ae_mutation ctx
        ~graph:(fun () -> Etob_omega.graph t)
        ~learn:(Etob_omega.learn t)
    in
    ( Tracer.wrap_node
        (Engine.stack
           [ omega_node;
             Tracer.wrap_proto (Engine.combine node ae_node);
             Stacks.post_driver (Etob_omega.service t) ]),
      () )

(* The recoverable stack is one composite node; its protocol span is the
   whole process stack. *)
let traced_recoverable_node (b : Builder.t) setup ~ae =
  let stores = Persist.Store.pool ~n:setup.Stacks.n in
  Harness.Adversity.arm_disk_faults b.Builder.plan stores;
  let ae =
    if ae then
      Some (Option.value b.Builder.ae_config ~default:Anti_entropy.default_config)
    else None
  in
  let make =
    Stacks.recoverable_node ?rconfig:b.Builder.rconfig ?mutation:b.Builder.rmutation
      ?etob_mutation:b.Builder.mutation ?commits:b.Builder.commits ?ae
      ?ae_mutation:b.Builder.ae_mutation setup ~stores
  in
  fun ctx ->
    let node, _ = make (Tracer.wrap_ctx ctx) in
    (Tracer.wrap_node (Tracer.wrap_proto node), ())

(* One builder run, traced, phase by phase: the calls [Builder.run]
   makes, for the stacks the workloads use. *)
let traced_builder_run totals ph (b : Builder.t) =
  let setup, inputs =
    phase ph p_setup (fun () -> (Builder.setup_of b, Builder.inputs b))
  in
  let cfg, trace = Tracer.config (Stacks.engine_config setup) in
  let make_node =
    match b.Builder.stack with
    | Builder.Etob impl -> traced_etob_node ?mutation:b.Builder.mutation setup impl
    | Builder.Etob_ae -> traced_ae_node b setup
    | Builder.Recoverable { ae } -> traced_recoverable_node b setup ~ae
    | stack -> invalid_arg ("traced run: stack " ^ Builder.stack_name stack)
  in
  ph.runs <- ph.runs + 1;
  let trace =
    phase ph p_run (fun () ->
        Tracer.traced_run totals (fun () ->
            ignore (Engine.run_with cfg ~make_node ~inputs);
            trace))
  in
  (setup, trace)

(* {2 alg5-long and paxos-long} *)

let long_spec ~stack ~count ~seed =
  String.concat "\n"
    [ Builder.header;
      "stack " ^ stack;
      "n 5";
      Printf.sprintf "seed %d" seed;
      Printf.sprintf "deadline %d" (5 + (4 * count) + 200);
      "timer-period 2";
      "delay uniform min=1 max=4";
      Printf.sprintf "workload posts count=%d from=5 every=4" count;
      "plan 0";
      "end" ]

let long_builder ~stack ~count ~seed =
  match Builder.of_string (long_spec ~stack ~count ~seed) with
  | Ok b -> b
  | Error e -> failwith e

let long_unit ~name ~stack ~count ~seed ~trace ~tmp ~pin =
  let b = long_builder ~stack ~count ~seed in
  let o, m = timed (fun () -> Builder.run b) in
  let pattern = (Builder.setup_of b).Stacks.pattern in
  let run_trace = Option.get o.Builder.trace in
  let broadcasts, finals = Check.final_state pattern run_trace in
  let fingerprint = Check.long_fingerprint run_trace ~finals in
  let errors =
    Check.final_state_errors ~broadcasts ~finals
    @ Option.to_list (pin fingerprint)
  in
  let events = Trace.steps run_trace and ops = List.length broadcasts in
  let layers, errors =
    if not trace then ([], errors)
    else begin
      (* Start the traced run from a compacted heap, as the untraced one
         started from a fresh one. *)
      Gc.compact ();
      let totals = Tracer.totals () and ph = phases () in
      let t0 = cpu_ns () in
      let _, traced = traced_builder_run totals ph b in
      let traced_ns = cpu_ns () - t0 in
      let broadcasts, finals =
        phase ph p_check (fun () ->
            let broadcasts, finals = Check.final_state pattern traced in
            ignore (Check.final_state_errors ~broadcasts ~finals);
            (broadcasts, finals))
      in
      let fp = phase ph p_digest (fun () -> Check.long_fingerprint traced ~finals) in
      Tracer.write_tsv (Filename.concat tmp ("spans-" ^ name ^ ".tsv"));
      ( layer_metrics ~totals ~ph ~m ~events ~msgs:broadcasts ~traced_ns,
        if String.equal fp fingerprint then errors
        else errors @ [ "traced fingerprint differs from the untraced one" ] )
    end
  in
  { measure = m;
    events;
    ops;
    failed = (if errors = [] then 0 else ops);
    fingerprint;
    errors;
    layers }

(* {2 soak-short} *)

let soak_legs = [ "alg5"; "ae-watchdog"; "ae-watchdog-recovery" ]

(* Campaign seeds come from a family of 64, each checked clean at the
   benchmark's size: the explorer does find genuine violations at some
   other seeds (seed 501, job 66 of the alg5 leg, at budget 200), and a
   finding would make the benchmark fail rather than measure. *)
let soak_seed seed = 1 + ((((seed - 1) mod 64) + 64) mod 64)

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* The checkers [Builder.run] evaluates, in its order. *)
let checker_violations (b : Builder.t) (setup : Stacks.setup) trace =
  let erun = Properties.etob_run_of_trace setup.Stacks.pattern trace in
  let report = Properties.etob_report erun in
  List.concat_map
    (function
      | Builder.Etob_spec policy ->
        let tau_bound =
          match policy with
          | Builder.Tau_auto -> Builder.tau_bound b
          | Builder.Tau_fixed bound -> bound
        in
        Properties.etob_violations ~tau_bound report
      | Builder.Watchdog policy ->
        let settle, bound =
          match policy with
          | Builder.Wd_auto -> (Builder.watchdog_settle b, Builder.watchdog_bound b)
          | Builder.Wd_fixed { settle; bound } -> (settle, bound)
        in
        Harness.Watchdog.violations (Harness.Watchdog.check ~settle ~bound erun))
    b.Builder.checkers

let soak_unit ~budget ~seed ~trace ~tmp ~pin =
  let dir = Filename.concat tmp (Printf.sprintf "soak-%d" (Unix.getpid ())) in
  let legs =
    List.map
      (fun name ->
         match Soak.Campaign.leg_of_name name with
         | Ok leg -> leg
         | Error e -> failwith e)
      soak_legs
  in
  let artifacts = Filename.concat dir "artifacts" in
  let config =
    { (Soak.Campaign.default_config ~artifacts legs) with Soak.Campaign.budget; seed }
  in
  let events = ref 0 and job_ns = ref 0 and rerun_ns = ref 0 in
  let totals = Tracer.totals () and ph = phases () in
  let mismatches = ref [] and msgs = ref [] in
  (* Re-run a finished job phase by phase, traced; its digest and
     violations must be the job's own. *)
  let rerun (o : Builder.outcome) =
    let t0 = cpu_ns () in
    let b = o.Builder.builder in
    let setup, traced = traced_builder_run totals ph b in
    let violations = phase ph p_check (fun () -> checker_violations b setup traced) in
    let digest = phase ph p_digest (fun () -> Check.trace_digest traced) in
    rerun_ns := !rerun_ns + (cpu_ns () - t0);
    if digest <> o.Builder.digest || violations <> o.Builder.violations then
      mismatches := Builder.to_string b :: !mismatches;
    let m = broadcast_msgs traced in
    if List.length m > List.length !msgs then msgs := m
  in
  let exec ~guard target ~seed plan =
    let t0 = cpu_ns () in
    let r = Soak.Runner.default_exec ~guard target ~seed plan in
    job_ns := !job_ns + (cpu_ns () - t0);
    (match r with
     | Soak.Runner.Finished o ->
       Option.iter (fun t -> events := !events + Trace.steps t) o.Builder.trace;
       if trace then rerun o
     | Soak.Runner.Wedged _ -> ());
    r
  in
  let res, m =
    timed (fun () ->
        Soak.Runner.start ~domains:1 ~exec
          ~journal:(Filename.concat dir "campaign.journal")
          config)
  in
  remove_tree dir;
  if trace then Tracer.write_tsv (Filename.concat tmp "spans-soak-short.tsv");
  let jobs = Soak.Campaign.total_jobs config in
  let fingerprint, failed, errors =
    match res with
    | Error e -> ("-", jobs, [ "campaign: " ^ e ])
    | Ok { Soak.Runner.state; _ } ->
      let digest = Soak.Campaign.coverage_digest state in
      (match pin digest with
       | Some e -> (digest, jobs, [ e ])
       | None ->
         let failed =
           List.length state.Soak.Campaign.findings + state.Soak.Campaign.poisoned
         in
         let errors =
           if failed = 0 then []
           else [ Printf.sprintf "%d of %d jobs found or poisoned" failed jobs ]
         in
         (digest, failed, errors))
  in
  let errors =
    errors
    @ List.map (fun spec -> "traced re-run differs from its job:\n" ^ spec) !mismatches
  in
  (* In trace mode the timed phase also holds the re-runs; the untraced
     numbers are the jobs' own. *)
  let m = if trace then { m with timed_ns = !job_ns } else m in
  { measure = m;
    events = !events;
    ops = jobs;
    failed;
    fingerprint;
    errors;
    layers =
      (if trace then
         layer_metrics ~totals ~ph ~m ~events:!events ~msgs:!msgs ~traced_ns:!rerun_ns
       else []) }

(* {2 service-e22} *)

let service_setup ~seed ~deadline =
  { (Service.Experiment.setup ~seed) with Stacks.deadline }

module Dkv = Service.Runner.Dkv
module Committed = Replication.Committed_replica.Make (Dkv)

(* [Service.Runner]'s engine config: replicas in [0, r), clients after
   them; the setup's delay and fault models on replica links only; the
   replica crash schedule widened over the client processes. *)
let service_config (setup : Stacks.setup) ~(spec : Harness.Service_spec.t) =
  let r = setup.Stacks.n in
  let n_total = r + spec.Harness.Service_spec.clients in
  let base = Stacks.engine_config setup in
  let pattern = ref (Failures.none ~n:n_total) in
  for q = 0 to r - 1 do
    Option.iter
      (fun t -> pattern := Failures.crash_at !pattern q t)
      (Failures.crash_time base.Engine.pattern q);
    List.iter
      (fun (at, recover_at) ->
         pattern := Failures.crash_recover_at !pattern q ~at ~recover_at)
      (Failures.downtimes base.Engine.pattern q)
  done;
  let fabric ~src ~dst = src < r && dst < r in
  let delay =
    Net.per_run (fun () ->
        let f = Net.instantiate base.Engine.delay in
        fun ~src ~dst ~now ~rng ->
          if fabric ~src ~dst then f ~src ~dst ~now ~rng else 1)
  in
  let faults =
    match Net.instantiate_faults base.Engine.faults with
    | None -> Net.no_faults
    | Some _ ->
      Net.fault_per_run (fun () ->
          match Net.instantiate_faults base.Engine.faults with
          | None -> fun ~src:_ ~dst:_ ~now:_ ~rng:_ -> Net.Deliver
          | Some f ->
            fun ~src ~dst ~now ~rng ->
              if fabric ~src ~dst then f ~src ~dst ~now ~rng else Net.Deliver)
  in
  { base with Engine.n = n_total; pattern = !pattern; delay; faults; sink = None }

(* [Service.Runner]'s process for the Algorithm-5 replica group: the
   group protocols behind a ctx whose [n] and [broadcast] span the
   replicas only, the committed replica, and the endpoint last. *)
let traced_service_node (setup : Stacks.setup) ~spec =
  let r = setup.Stacks.n in
  fun (ctx : Engine.ctx) ->
    let ctx = Tracer.wrap_ctx ctx in
    if ctx.Engine.self >= r then
      let _, node =
        Service.Client.create ctx ~spec ~replicas:r ~index:(ctx.Engine.self - r)
      in
      (Tracer.wrap_node node, ())
    else begin
      let rctx =
        { ctx with
          Engine.n = r;
          broadcast =
            (fun payload ->
              for q = 0 to r - 1 do
                ctx.Engine.send q payload
              done) }
      in
      let omega, omega_node = Stacks.omega_module setup rctx in
      let etob, etob_node = Etob_omega.create rctx ~omega in
      let rep, rep_node =
        Committed.create rctx ~etob:(Etob_omega.service etob) ~omega
          ~promotion:(fun () -> Etob_omega.promotion etob)
      in
      let find view key =
        Replication.Machines.String_map.find_opt key (Dkv.inner (view rep))
      in
      let has log ~client ~rid =
        List.exists
          (fun c -> Replication.Command.rid_of c = Some (client, rid))
          (log rep)
      in
      let views =
        { Service.Endpoint.weak_find = find Committed.speculative_state;
          strong_find = find Committed.committed_state;
          weak_has = has Committed.speculative_log;
          strong_has = has Committed.committed_log;
          submit = Committed.submit rep }
      in
      let _, ep_node = Service.Endpoint.create ctx ~spec ~views in
      ( Tracer.wrap_node
          (Engine.stack [ omega_node; Tracer.wrap_proto etob_node; rep_node; ep_node ]),
        () )
    end

let service_metrics ~spec ~deadline trace =
  let report = Service.Metrics.of_trace ~spec ~horizon:deadline trace in
  ignore
    (Service.Metrics.availability_in trace ~endpoints:Service.Experiment.minority
       ~from_time:0 ~until_time:deadline);
  report

let service_unit ~deadline ~seed ~trace ~tmp ~pin =
  let spec = Service.Experiment.spec in
  let setup = service_setup ~seed ~deadline in
  let o, m = timed (fun () -> Service.Runner.run ~setup ~spec ~impl:Stacks.Algorithm_5)
  in
  let report = o.Service.Runner.report in
  let fingerprint =
    Printf.sprintf "%s:%d" o.Service.Runner.digest report.Service.Metrics.failed
  in
  let errors =
    (if o.Service.Runner.dedup_ok then [] else [ "dedup check failed" ])
    @ Option.to_list (pin fingerprint)
  in
  let ops = report.Service.Metrics.requests in
  let events = Trace.steps o.Service.Runner.trace in
  let layers, errors =
    if not trace then ([], errors)
    else begin
      Gc.compact ();
      let t0 = cpu_ns () in
      let totals = Tracer.totals () and ph = phases () in
      let setup = phase ph p_setup (fun () -> service_setup ~seed ~deadline) in
      let cfg, traced =
        phase ph p_setup (fun () -> Tracer.config (service_config setup ~spec))
      in
      let make_node = traced_service_node setup ~spec in
      ph.runs <- 1;
      let traced =
        phase ph p_run (fun () ->
            Tracer.traced_run totals (fun () ->
                ignore (Engine.run_with cfg ~make_node ~inputs:[]);
                traced))
      in
      let report =
        phase ph p_check (fun () -> service_metrics ~spec ~deadline traced)
      in
      let digest = phase ph p_digest (fun () -> Check.trace_digest traced) in
      let traced_ns = cpu_ns () - t0 in
      Tracer.write_tsv (Filename.concat tmp "spans-service-e22.tsv");
      let fp = Printf.sprintf "%s:%d" digest report.Service.Metrics.failed in
      ( layer_metrics ~totals ~ph ~m ~events ~msgs:(broadcast_msgs traced) ~traced_ns,
        if String.equal fp fingerprint then errors
        else errors @ [ "traced fingerprint differs from the untraced one" ] )
    end
  in
  { measure = m;
    events;
    ops;
    failed = (if errors = [] then 0 else ops);
    fingerprint;
    errors;
    layers }

(* {2 Metrics} *)

(* The probe's CPU time on the reference machine (README.md) at its
   usual speed. *)
let probe_ref_ns = 20_000_000

(* The end-to-end metrics of one untraced unit, each with the direction
   in which it is better.  Times are CPU times scaled to the reference
   machine's speed, [probe_ref_ns / probe_ns]. *)
let end_to_end r =
  let m = r.measure in
  let scale = float probe_ref_ns /. float m.probe_ns in
  let secs = float m.timed_ns *. scale /. 1e9 in
  [ (("events_per_s", float r.events /. secs, "1/s"), `Higher);
    (("ops_per_s", float r.ops /. secs, "1/s"), `Higher);
    ( ("heap_peak_mb", float (m.top_heap_words * (Sys.word_size / 8)) /. 1e6, "MB"),
      `Lower );
    (("setup_s", float m.setup_ns *. scale /. 1e9, "s"), `Lower) ]

(* {2 The catalogue} *)

type sizes = {
  alg5_count : int;
  paxos_count : int;
  soak_budget : int;
  service_deadline : int;
}

(* The benchmark's sizes; golden fingerprints pin runs at these.  The
   tests run the same code at [tiny]. *)
let full =
  { alg5_count = 500; paxos_count = 1000; soak_budget = 100; service_deadline = 600 }

let tiny =
  { alg5_count = 12; paxos_count = 12; soak_budget = 2; service_deadline = 280 }

let names = [ "alg5-long"; "paxos-long"; "soak-short"; "service-e22" ]

let run ?(sizes = full) name ~seed ~trace ~tmp =
  let seed = if name = "soak-short" then soak_seed seed else seed in
  let pin fp =
    if sizes = full then Check.golden_error ~workload:name ~seed fp else None
  in
  match name with
  | "alg5-long" ->
    long_unit ~name ~stack:"alg5" ~count:sizes.alg5_count ~seed ~trace ~tmp ~pin
  | "paxos-long" ->
    long_unit ~name ~stack:"paxos" ~count:sizes.paxos_count ~seed ~trace ~tmp ~pin
  | "soak-short" -> soak_unit ~budget:sizes.soak_budget ~seed ~trace ~tmp ~pin
  | "service-e22" ->
    service_unit ~deadline:sizes.service_deadline ~seed ~trace ~tmp ~pin
  | _ -> invalid_arg ("unknown workload " ^ name)
