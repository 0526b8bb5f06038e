(* Declarative test builder: one immutable value composing stack, workload,
   adversity plan (plus conditional boosts), detector source, checkers and
   budget — and one interpreter, [run], which wires the stack through
   [Stacks].  Exploration generates and shrinks plans for a template
   builder, and ecsim decodes its flags (or a --spec file) into one; runs
   a builder cannot describe are hand-wired with [Stacks] directly.

   Determinism is the design constraint throughout: a builder made of plain
   data serializes to a stable text form and replays byte-identically, and
   the policy formulas (posting cadence, tau and watchdog bounds,
   generation clamps) live here so exploration, the CLI and spec-file
   replays compute exactly the same numbers. *)

open Simulator
open Simulator.Types
open Ec_core

type delay_model = Constant of int | Uniform of { min_d : int; max_d : int }

type base = {
  n : int;
  seed : int;
  deadline : time;
  timer_period : int;
  delay : delay_model;
}

type stack =
  | Etob of Stacks.etob_impl
  | Etob_ae
  | Recoverable of { ae : bool }
  | Etob_commits
  | Gossip
  | Ec
  | Ec_lifted
  | Ec_via_etob of Stacks.etob_impl
  | Eic
  | Ec_via_eic

type workload =
  | No_posts
  | Posts of { count : int; from_time : time; every : int }
  | Auto_posts of { count : int; stretch : bool }
  | Weighted of {
      count : int;
      from_time : time;
      every : int;
      jitter : int;
      mix : (string * int) list;
    }
  | Explicit of (time * proc_id * string) list

type tau_policy = Tau_auto | Tau_fixed of int
type watchdog_policy = Wd_auto | Wd_fixed of { settle : time; bound : int }
type checker = Etob_spec of tau_policy | Watchdog of watchdog_policy
type boost = Drop_boost_while_partitioned of { factor : int }
type trace_format = Jsonl | Binary

let trace_format_name = function Jsonl -> "jsonl" | Binary -> "bin"

let trace_format_of_name = function
  | "jsonl" -> Some Jsonl
  | "bin" -> Some Binary
  | _ -> None

type t = {
  base : base;
  stack : stack;
  workload : workload;
  plan : Adversity.t;
  boosts : boost list;
  omega : Stacks.omega_source option;
  checkers : checker list;
  budget : int option;
  mutation : Etob_omega.mutation option;
  rmutation : Recoverable.mutation option;
  ae_mutation : Anti_entropy.mutation option;
  rconfig : Recoverable.config option;
  ae_config : Anti_entropy.config option;
  commits : bool option;
  sink : Sink.t option;
  trace_out : (string * trace_format) option;
  max_instance : int;
  service : Service_spec.t option;
}

let create ?(seed = 42) ?(timer_period = 2) ?(delay = Constant 1) ~n ~deadline
    stack =
  { base = { n; seed; deadline; timer_period; delay };
    stack;
    workload = No_posts;
    plan = [];
    boosts = [];
    omega = None;
    checkers = [];
    budget = None;
    mutation = None;
    rmutation = None;
    ae_mutation = None;
    rconfig = None;
    ae_config = None;
    commits = None;
    sink = None;
    trace_out = None;
    max_instance = 0;
    service = None }

(* The EC stacks' deterministic proposer. *)
let default_propose p ~instance = Value.Num ((1000 * p) + instance)

(* ------------------------------------------------------------------ *)
(* Derived values and policies (exploration's formulas)                *)
(* ------------------------------------------------------------------ *)

let base_max_of t =
  match t.base.delay with
  | Constant d -> d
  | Uniform { max_d; _ } -> max_d

let auto_post_from = 8
let auto_post_every_base = 3

(* Recovery headroom granted on top of a plan's settle time: a few promote
   rounds plus message flushes.  Deliberately generous — the bound only
   needs to separate "converged late" from "never converged". *)
let slack t = (8 * t.base.timer_period) + (6 * base_max_of t) + 10

(* The workload's post count, for the policy formulas below. *)
let post_count t =
  match t.workload with
  | Auto_posts { count; _ } | Posts { count; _ } | Weighted { count; _ } ->
    count
  | No_posts -> 0
  | Explicit posts -> List.length posts

(* Stretched cadence for recovery targets: a process restarted by a mid-run
   downtime window still posts afterwards — the amnesia mutant only reuses
   a sequence number if its victim broadcasts again after the restart. *)
let auto_post_every t =
  let stretch =
    match t.workload with Auto_posts { stretch; _ } -> stretch | _ -> false
  in
  if stretch then
    max auto_post_every_base
      ((t.base.deadline - auto_post_from - slack t) / max 1 (post_count t))
  else auto_post_every_base

(* Start of the final full posting round: from here on every correct
   process posts (and re-gossips its whole causality graph) at least
   once. *)
let drop_safe_until t =
  auto_post_from + (max 0 (post_count t - t.base.n) * auto_post_every t)

let last_post t =
  match t.workload with
  | No_posts -> 0
  | Auto_posts { count; _ } ->
    auto_post_from + (max 0 (count - 1) * auto_post_every t)
  | Posts { count; from_time; every } ->
    from_time + (max 0 (count - 1) * every)
  | Weighted { count; from_time; every; jitter; _ } ->
    from_time + (max 0 (count - 1) * every) + jitter
  | Explicit posts ->
    List.fold_left (fun acc (tm, _, _) -> max acc tm) 0 posts

let ae_used t =
  match t.stack with
  | Etob_ae | Recoverable { ae = true } -> true
  | _ -> false

(* Worst-case post-heal catch-up time of the digest exchange: the laggard's
   next digest broadcast, one full resend backoff, and delta delivery. *)
let ae_catchup t =
  let ae = Option.value t.ae_config ~default:Anti_entropy.default_config in
  ((ae.Anti_entropy.every + ae.Anti_entropy.max_backoff + 2)
   * t.base.timer_period)
  + (2 * base_max_of t)

let lossy_safe_until t =
  if ae_used t then t.base.deadline - slack t - ae_catchup t
  else drop_safe_until t

let alg5_based t =
  match t.stack with
  | Etob Stacks.Algorithm_5 | Etob_ae | Recoverable _ -> true
  | _ -> false

(* The plan-aware convergence bound.  With a never-flapping oracle and no
   restarts, every adoption in Algorithm 5 is a same-lineage promote from
   the one stable leader, so tau = 0 is mandatory no matter what else the
   plan contains; otherwise the plan's settle time plus slack, plus the
   retransmission backoff a restarted process may wait out, plus the
   digest-exchange catch-up a partition-isolated process may need. *)
let tau_bound t =
  let recovery = Adversity.has_recovery t.plan in
  if alg5_based t && (not (Adversity.has_flap t.plan)) && not recovery then 0
  else
    Adversity.settle_time ~base_max:(base_max_of t) t.plan
    + slack t
    + (if recovery then Recoverable.default_config.Recoverable.max_backoff
       else 0)
    + (if ae_used t && Adversity.has_partition_loss t.plan then ae_catchup t
       else 0)

let watchdog_settle t =
  max (Adversity.settle_time ~base_max:(base_max_of t) t.plan) (last_post t)

let watchdog_bound t =
  slack t
  + (if ae_used t then ae_catchup t else 0)
  + (match t.stack with
     | Recoverable _ -> Recoverable.default_config.Recoverable.max_backoff
     | _ -> 0)

(* ------------------------------------------------------------------ *)
(* Workload materialization                                            *)
(* ------------------------------------------------------------------ *)

(* Smooth weighted round-robin over the mix: deterministic, no randomness,
   the classic "add weights, take the max, subtract the total" scheduler.
   Arrival jitter draws from a seed-derived stream so reruns are stable. *)
let weighted_posts ~n ~seed ~count ~from_time ~every ~jitter ~mix =
  let mix = match mix with [] -> [ ("m", 1) ] | mix -> mix in
  let weights = Array.of_list (List.map snd mix) in
  let names = Array.of_list (List.map fst mix) in
  let total = Array.fold_left ( + ) 0 weights in
  let current = Array.make (Array.length weights) 0 in
  let rng = Rng.create (seed lxor 0x5eed) in
  let posts =
    List.init count (fun i ->
        Array.iteri (fun j w -> current.(j) <- current.(j) + w) weights;
        let best = ref 0 in
        Array.iteri
          (fun j c -> if c > current.(!best) then best := j)
          current;
        current.(!best) <- current.(!best) - total;
        let tm =
          from_time + (i * every)
          + (if jitter > 0 then Rng.int rng (jitter + 1) else 0)
        in
        (tm, i mod n, Stacks.Post (Printf.sprintf "%s%d" names.(!best) i)))
  in
  List.stable_sort (fun (a, _, _) (b, _, _) -> Int.compare a b) posts

let inputs t =
  let n = t.base.n in
  match t.workload with
  | No_posts -> []
  | Posts { count; from_time; every } ->
    Stacks.spread_posts ~n ~count ~from_time ~every
  | Auto_posts { count; _ } ->
    Stacks.spread_posts ~n ~count ~from_time:auto_post_from
      ~every:(auto_post_every t)
  | Weighted { count; from_time; every; jitter; mix } ->
    weighted_posts ~n ~seed:t.base.seed ~count ~from_time ~every ~jitter ~mix
  | Explicit posts ->
    List.map (fun (tm, p, tag) -> (tm, p, Stacks.Post tag)) posts

(* ------------------------------------------------------------------ *)
(* Setup construction (base, clauses, plan, boosts)                    *)
(* ------------------------------------------------------------------ *)

let partition_windows plan =
  List.filter_map
    (function
      | Adversity.Partition { from_time; until_time; _ }
      | Adversity.Lossy_partition { from_time; until_time; _ }
      | Adversity.Oneway_partition { from_time; until_time; _ }
      | Adversity.Flapping_partition { from_time; until_time; _ } ->
        Some (from_time, until_time)
      | _ -> None)
    plan

let boost_factor t =
  List.fold_left
    (fun acc (Drop_boost_while_partitioned { factor }) -> acc * max 1 factor)
    1 t.boosts

(* With boosts, the plan's drop windows are split at the partition-window
   boundaries and every segment that starts inside an open partition gets
   the boosted rate.  Without boosts this is exactly [Adversity.apply], so
   legacy plans stay byte-identical. *)
let apply_plan t s =
  if t.boosts = [] then Adversity.apply t.plan s
  else begin
    let factor = boost_factor t in
    let windows = partition_windows t.plan in
    let without_drops =
      List.filter (function Adversity.Drop _ -> false | _ -> true) t.plan
    in
    let s = Adversity.apply without_drops s in
    let in_partition tm = List.exists (fun (f, u) -> f <= tm && tm < u) windows in
    List.fold_left
      (fun s spec ->
         match spec with
         | Adversity.Drop { from_time; until_time; pct } ->
           let cuts =
             List.sort_uniq Int.compare
               (from_time :: until_time
                :: List.concat_map
                  (fun (a, b) ->
                     List.filter
                       (fun c -> from_time < c && c < until_time)
                       [ a; b ])
                  windows)
           in
           let rec segments = function
             | a :: (b :: _ as rest) -> (a, b) :: segments rest
             | _ -> []
           in
           List.fold_left
             (fun s (a, b) ->
                let pct' =
                  if in_partition a then min 100 (pct * factor) else pct
                in
                { s with
                  Stacks.faults =
                    Net.compose_faults
                      [ s.Stacks.faults;
                        Net.drop_window ~from_time:a ~until_time:b pct' ] })
             s (segments cuts)
         | _ -> s)
      s t.plan
  end

let base_setup { n; seed; deadline; timer_period; delay } =
  { (Stacks.default ~n ~deadline) with
    Stacks.seed;
    timer_period;
    delay =
      (match delay with
       | Constant d -> Net.constant d
       | Uniform { min_d; max_d } -> Net.uniform ~min:min_d ~max:max_d) }

let setup_of t =
  let s = base_setup t.base in
  let s = match t.omega with None -> s | Some omega -> { s with Stacks.omega } in
  let s =
    match t.sink with None -> s | Some sink -> { s with Stacks.sink = Some sink }
  in
  apply_plan t s

(* ------------------------------------------------------------------ *)
(* Running                                                             *)
(* ------------------------------------------------------------------ *)

type outcome = {
  builder : t;
  trace : Trace.t option;
  report : Properties.etob_report option;
  violations : string list;
  digest : string;
}

let run ?(digest = false) ?(catch = false) ?guard t =
  let orig = t in
  (* [attempt t capture] runs the (possibly sink-augmented) builder [t];
     when a [capture] trace is teed in through the sink, it supersedes the
     engine's own (then empty) trace for checkers and digests. *)
  let attempt t capture () =
    let setup = setup_of t in
    let inputs = inputs t in
    let propose_value = default_propose and max_instance = t.max_instance in
    let trace =
      match t.stack with
      | Etob impl -> Stacks.run_etob ~inputs ?mutation:t.mutation setup impl
      | Etob_ae ->
        fst
          (Stacks.run_etob_ae ~inputs ?mutation:t.mutation
             ?ae_config:t.ae_config ?ae_mutation:t.ae_mutation setup)
      | Recoverable { ae } ->
        let stores = Persist.Store.pool ~n:setup.Stacks.n in
        Adversity.arm_disk_faults t.plan stores;
        let ae_cfg =
          if ae then
            Some (Option.value t.ae_config ~default:Anti_entropy.default_config)
          else None
        in
        let trace, _, _ =
          Stacks.run_recoverable ~inputs ?rconfig:t.rconfig
            ?mutation:t.rmutation ?etob_mutation:t.mutation ?commits:t.commits
            ?ae:ae_cfg ?ae_mutation:t.ae_mutation ~stores setup
        in
        trace
      | Etob_commits -> Stacks.run_etob_with_commits ~inputs setup
      | Gossip -> Stacks.run_gossip_order ~inputs setup
      | Ec -> Stacks.run_ec_omega ~inputs setup ~propose_value ~max_instance
      | Ec_lifted ->
        Stacks.run_ec_lifted ~inputs setup ~propose_value ~max_instance
      | Ec_via_etob impl ->
        Stacks.run_ec_via_etob ~inputs setup impl ~propose_value ~max_instance
      | Eic -> Stacks.run_eic_over_ec ~inputs setup ~propose_value ~max_instance
      | Ec_via_eic ->
        Stacks.run_ec_via_eic ~inputs setup ~propose_value ~max_instance
    in
    let trace = match capture with Some c -> c | None -> trace in
    let report, violations =
      if t.checkers = [] then (None, [])
      else begin
        let erun = Properties.etob_run_of_trace setup.Stacks.pattern trace in
        let report = Properties.etob_report erun in
        let violations =
          List.concat_map
            (function
              | Etob_spec policy ->
                let bound =
                  match policy with
                  | Tau_auto -> tau_bound t
                  | Tau_fixed bound -> bound
                in
                Properties.etob_violations ~tau_bound:bound report
              | Watchdog policy ->
                let settle, bound =
                  match policy with
                  | Wd_auto -> (watchdog_settle t, watchdog_bound t)
                  | Wd_fixed { settle; bound } -> (settle, bound)
                in
                Watchdog.violations (Watchdog.check ~settle ~bound erun))
            t.checkers
        in
        (Some report, violations)
      end
    in
    let dg =
      if digest then
        Digest.to_hex (Digest.string (Format.asprintf "%a" Trace.pp trace))
      else ""
    in
    { builder = orig;
      trace = Some trace;
      report;
      violations;
      digest = dg }
  in
  (* The trace-file escape hatch and the guard hook share one pattern:
     tee the extra sinks (and the caller's own, if any) with a capturing
     recorder, so the outcome still carries the full trace for checkers
     and digests (an engine given an explicit sink returns an empty
     trace).  The guard fires first, before any recording work, so a
     deadline or event-budget breach raises out of a wedged run at the
     earliest observable point. *)
  let guarded sink =
    match guard with None -> sink | Some g -> Sink.tee (Sink.on_every g) sink
  in
  let go () =
    match t.trace_out with
    | None ->
      (match guard with
       | None -> attempt t None ()
       | Some _ ->
         let capture = Trace.create ~n:t.base.n in
         let sink = guarded (Sink.recorder capture) in
         let sink =
           match t.sink with
           | None -> sink
           | Some user -> Sink.tee sink user
         in
         attempt { t with sink = Some sink } (Some capture) ())
    | Some (path, format) ->
      let capture = Trace.create ~n:t.base.n in
      let with_file =
        match format with
        | Jsonl -> Sink.with_jsonl path
        | Binary -> Sink.with_binary path
      in
      with_file (fun file_sink ->
          let sink = guarded (Sink.tee (Sink.recorder capture) file_sink) in
          let sink =
            match t.sink with
            | None -> sink
            | Some user -> Sink.tee sink user
          in
          attempt
            { t with trace_out = None; sink = Some sink }
            (Some capture) ())
  in
  if not catch then go ()
  else
    match go () with
    | o -> o
    | exception e ->
      (* A raising run is a finding, not an infrastructure error: mutants
         may corrupt state into genuinely impossible configurations. *)
      { builder = t;
        trace = None;
        report = None;
        violations = [ "exception: " ^ Printexc.to_string e ];
        digest = "" }

(* ------------------------------------------------------------------ *)
(* Stable text form                                                    *)
(* ------------------------------------------------------------------ *)

let header = "ecsim-spec v1"
let legacy_header = "ecsim-explore-repro v1"

let stack_name = function
  | Etob Stacks.Algorithm_5 -> "alg5"
  | Etob Stacks.Paxos_baseline -> "paxos"
  | Etob Stacks.Algorithm_1_over_4 -> "alg1"
  | Etob_ae -> "alg5+ae"
  | Recoverable { ae = false } -> "recoverable"
  | Recoverable { ae = true } -> "recoverable+ae"
  | Etob_commits -> "alg5+commits"
  | Gossip -> "gossip"
  | Ec -> "ec"
  | Ec_lifted -> "ec-lifted"
  | Ec_via_etob Stacks.Algorithm_5 -> "ec-via-alg5"
  | Ec_via_etob Stacks.Paxos_baseline -> "ec-via-paxos"
  | Ec_via_etob Stacks.Algorithm_1_over_4 -> "ec-via-alg1"
  | Eic -> "eic"
  | Ec_via_eic -> "ec-via-eic"

let stack_of_name = function
  | "alg5" -> Some (Etob Stacks.Algorithm_5)
  | "paxos" -> Some (Etob Stacks.Paxos_baseline)
  | "alg1" -> Some (Etob Stacks.Algorithm_1_over_4)
  | "alg5+ae" -> Some Etob_ae
  | "recoverable" -> Some (Recoverable { ae = false })
  | "recoverable+ae" -> Some (Recoverable { ae = true })
  | "alg5+commits" -> Some Etob_commits
  | "gossip" -> Some Gossip
  | "ec" -> Some Ec
  | "ec-lifted" -> Some Ec_lifted
  | "ec-via-alg5" -> Some (Ec_via_etob Stacks.Algorithm_5)
  | "ec-via-paxos" -> Some (Ec_via_etob Stacks.Paxos_baseline)
  | "ec-via-alg1" -> Some (Ec_via_etob Stacks.Algorithm_1_over_4)
  | "eic" -> Some Eic
  | "ec-via-eic" -> Some Ec_via_eic
  | _ -> None

let pre_to_string = function
  | Detectors.Omega.Self_trust -> "self"
  | Detectors.Omega.Fixed p -> Printf.sprintf "fixed:%d" p
  | Detectors.Omega.Rotating k -> Printf.sprintf "rotating:%d" k
  | Detectors.Omega.Seeded s -> Printf.sprintf "seeded:%d" s
  | Detectors.Omega.Blockwise blocks ->
    "blockwise:"
    ^ String.concat ";"
        (List.map
           (fun block -> String.concat "," (List.map string_of_int block))
           blocks)

let pre_of_string s =
  match String.index_opt s ':' with
  | None -> if s = "self" then Some Detectors.Omega.Self_trust else None
  | Some i ->
    let kind = String.sub s 0 i in
    let arg = String.sub s (i + 1) (String.length s - i - 1) in
    (match kind with
     | "fixed" ->
       Option.map (fun p -> Detectors.Omega.Fixed p) (int_of_string_opt arg)
     | "rotating" ->
       Option.map (fun k -> Detectors.Omega.Rotating k) (int_of_string_opt arg)
     | "seeded" ->
       Option.map (fun s -> Detectors.Omega.Seeded s) (int_of_string_opt arg)
     | "blockwise" ->
       let blocks =
         List.map
           (fun block ->
              List.filter_map int_of_string_opt
                (String.split_on_char ',' block))
           (String.split_on_char ';' arg)
       in
       Some (Detectors.Omega.Blockwise blocks)
     | _ -> None)

(* Violation messages come from Format and may contain line breaks; the
   file format is line-oriented, so collapse each onto a single line. *)
let one_line s =
  String.concat " "
    (List.filter (fun w -> w <> "")
       (String.split_on_char ' '
          (String.map (function '\n' | '\t' | '\r' -> ' ' | c -> c) s)))

let mix_ok (name, _) =
  name <> ""
  && String.for_all
       (fun c -> c <> ',' && c <> ':' && c <> ' ' && c <> '=')
       name

let workload_lines = function
  | No_posts -> [ "workload none" ]
  | Posts { count; from_time; every } ->
    [ Printf.sprintf "workload posts count=%d from=%d every=%d" count
        from_time every ]
  | Auto_posts { count; stretch } ->
    [ Printf.sprintf "workload auto count=%d stretch=%s" count
        (if stretch then "on" else "off") ]
  | Weighted { count; from_time; every; jitter; mix } ->
    if not (List.for_all mix_ok mix) then
      invalid_arg "Builder.to_lines: weighted mix names must be plain words";
    [ Printf.sprintf "workload weighted count=%d from=%d every=%d jitter=%d mix=%s"
        count from_time every jitter
        (String.concat ","
           (List.map (fun (name, w) -> Printf.sprintf "%s:%d" name w) mix)) ]
  | Explicit posts ->
    "workload explicit"
    :: List.map
      (fun (tm, p, tag) -> Printf.sprintf "post %d %d %s" tm p tag)
      posts

let checker_line = function
  | Etob_spec Tau_auto -> "check etob tau=auto"
  | Etob_spec (Tau_fixed bound) -> Printf.sprintf "check etob tau=%d" bound
  | Watchdog Wd_auto -> "check watchdog auto"
  | Watchdog (Wd_fixed { settle; bound }) ->
    Printf.sprintf "check watchdog settle=%d bound=%d" settle bound

let to_lines ?digest ?(violations = []) t =
  let d = t.base in
  (match (t.rconfig, t.ae_config, t.commits, t.sink, t.trace_out) with
   | None, None, None, None, None -> ()
   | _ -> invalid_arg "Builder.to_lines: escape hatches are not serializable");
  [ header;
    "stack " ^ stack_name t.stack;
    Printf.sprintf "n %d" d.n;
    Printf.sprintf "seed %d" d.seed;
    Printf.sprintf "deadline %d" d.deadline;
    Printf.sprintf "timer-period %d" d.timer_period;
    (match d.delay with
     | Constant dl -> Printf.sprintf "delay constant %d" dl
     | Uniform { min_d; max_d } ->
       Printf.sprintf "delay uniform min=%d max=%d" min_d max_d) ]
  @ (match t.omega with
     | None -> []
     | Some (Stacks.Oracle { stabilize_at; pre }) ->
       [ Printf.sprintf "omega oracle stable=%d pre=%s" stabilize_at
           (pre_to_string pre) ]
     | Some (Stacks.Elected { initial_timeout }) ->
       [ Printf.sprintf "omega elected timeout=%d" initial_timeout ])
  @ workload_lines t.workload
  @ (match t.service with
     | None -> []
     | Some s -> [ "service " ^ Service_spec.to_string s ])
  @ (match t.mutation with
     | None -> []
     | Some m -> [ "mutant " ^ Etob_omega.mutation_name m ])
  @ (match t.rmutation with
     | None -> []
     | Some m -> [ "rmutant " ^ Recoverable.mutation_name m ])
  @ (match t.ae_mutation with
     | None -> []
     | Some m -> [ "ae-mutant " ^ Anti_entropy.mutation_name m ])
  @ List.map
    (fun (Drop_boost_while_partitioned { factor }) ->
       Printf.sprintf "boost drop-while-partitioned factor=%d" factor)
    t.boosts
  @ List.map checker_line t.checkers
  @ (if t.max_instance > 0 then
       [ Printf.sprintf "max-instance %d" t.max_instance ]
     else [])
  @ (match t.budget with
     | None -> []
     | Some b -> [ Printf.sprintf "budget %d" b ])
  @ (match digest with
     | None -> []
     | Some dg -> [ "digest " ^ (if dg = "" then "-" else dg) ])
  @ List.map (fun v -> "violation " ^ one_line v) violations
  @ [ Printf.sprintf "plan %d" (Adversity.size t.plan) ]
  @ Adversity.to_lines t.plan
  @ [ "end" ]

let to_string ?digest ?violations t =
  String.concat "\n" (to_lines ?digest ?violations t) ^ "\n"

(* ------------------------------------------------------------------ *)
(* Exploration templates and plan generation                           *)
(* ------------------------------------------------------------------ *)

(* An exploration target is a builder used as a template: it fixes
   everything but the plan and the engine seed, which exploration draws
   per plan index.

   The per-plan tau bound is where the correctness argument lives.  With
   an oracle that never flaps, every adoption in Algorithm 5 is a
   same-lineage promote from the one stable leader, so tau = 0 is
   mandatory whatever else the plan does; with flapping, tau may reach
   the plan's settle time ([tau_bound]).  The other half is
   generation-side fairness: every generated plan must be recoverable
   before the horizon, or a faithful protocol would be flagged.  All such
   clamps (drop windows closing before the final re-gossip round, spike
   tails fitting in the horizon, crash counts admitted by the
   environment) live in [random_spec] / [sanitize], so exploration can
   trust any plan it draws. *)

(* Algorithm 5 may carry the anti-entropy layer and the crash-recovery
   wrapper; the quorum baselines run bare. *)
let etob_stack ~recovery ~ae impl =
  match impl with
  | Stacks.Algorithm_5 when recovery -> Recoverable { ae }
  | Stacks.Algorithm_5 when ae -> Etob_ae
  | impl -> Etob impl

let template ?(n = 4) ?(deadline = 240) ?(posts = 12)
    ?(delay = Uniform { min_d = 1; max_d = 3 }) ?(recovery = false)
    ?(ae = false) ?(watchdog = false) impl =
  { (create ~delay ~n ~deadline (etob_stack ~recovery ~ae impl)) with
    workload = Auto_posts { count = posts; stretch = recovery };
    checkers =
      Etob_spec Tau_auto :: (if watchdog then [ Watchdog Wd_auto ] else []) }

(* The per-plan stack rule: Algorithm 5 runs as [Recoverable] when the
   plan holds downtime windows or disk faults (they are only fair against
   a stack that can replay its stable store), and as the template's own
   stack otherwise — so dropping the last window while shrinking demotes
   the run back to crash-stop. *)
let with_plan ?seed t plan =
  let t =
    match seed with
    | None -> t
    | Some seed -> { t with base = { t.base with seed } }
  in
  let stack =
    match t.stack with
    | Etob Stacks.Algorithm_5 when Adversity.has_recovery plan ->
      Recoverable { ae = false }
    | Etob_ae when Adversity.has_recovery plan -> Recoverable { ae = true }
    | stack -> stack
  in
  { t with plan; stack }

let has_watchdog t =
  List.exists (function Watchdog _ -> true | Etob_spec _ -> false) t.checkers

(* A spec read as a template must have a shape the generator can be fair
   to; anything else is rejected by clause, never rewritten. *)
let explorable t =
  let reject clause why =
    Error (Printf.sprintf "cannot explore this spec: its %s %s" clause why)
  in
  match (t.stack, t.workload) with
  | (Etob _ | Etob_ae | Recoverable _), Auto_posts _ ->
    if Option.is_some t.omega then
      reject "omega clause" "replaces the stable oracle the tau bound assumes"
    else if t.boosts <> [] then
      reject "boost clause" "is outside the generator's fairness clamps"
    else if Option.is_some t.service then
      reject "service clause" "has no meaning under exploration"
    else Ok t
  | (Etob _ | Etob_ae | Recoverable _), _ ->
    reject "workload"
      "is not auto (the generator clamps windows to its posting rounds)"
  | stack, _ ->
    reject ("stack " ^ stack_name stack) "is not an ETOB stack"

let max_crashes t =
  if alg5_based t then t.base.n - 1  (* any environment *)
  else (t.base.n - 1) / 2  (* quorum stacks need a correct majority *)

let random_spec t ~rng =
  let open Adversity in
  let n = t.base.n and d = t.base.deadline and base_max = base_max_of t in
  let window ~latest_until =
    let latest_until = max 2 latest_until in
    let from_time = Rng.int rng (latest_until - 1) in
    let len = 1 + Rng.int rng (max 1 (d / 4)) in
    (from_time, min latest_until (from_time + len))
  in
  let healed_latest = d - slack t - base_max in
  (* A nonempty proper subset of the processes, drawn uniformly-ish. *)
  let random_side () =
    match List.filter (fun _ -> Rng.int rng 2 = 0) (all_procs n) with
    | [] -> [ 0 ]
    | l when List.length l = n -> [ 0 ]
    | l -> l
  in
  (* Drops exist only for Algorithm 5, whose full-graph re-gossip makes a
     closed drop window recoverable; the quorum baselines have no such
     blanket retransmission.  Recovery adversities exist only for
     recoverable templates.  Message-LOSING partitions are only fair
     against Algorithm 5 (re-gossip or anti-entropy recovers the loss; see
     [lossy_safe_until]) and join the pool only for partition-aware
     templates (anti-entropy or watchdog), so other templates keep drawing
     exactly the plans they always did. *)
  let kind_pool =
    [ 0; 1; 2; 3; 4 ]
    @ (if alg5_based t && drop_safe_until t > 2 then [ 5 ] else [])
    @ (match t.stack with Recoverable _ -> [ 6; 7 ] | _ -> [])
    @ (if alg5_based t && (ae_used t || has_watchdog t)
          && lossy_safe_until t > 2
       then [ 8; 9; 10; 11 ]
       else [])
  in
  match List.nth kind_pool (Rng.int rng (List.length kind_pool)) with
  | 0 when max_crashes t >= 1 ->
    Crash { proc = Rng.int rng n; at = Rng.int rng d }
  | 1 ->
    let left = random_side () in
    let from_time, until_time = window ~latest_until:healed_latest in
    Partition { left; from_time; until_time }
  | 2 ->
    let factor = 2 + Rng.int rng 7 in
    let latest = d - slack t - (base_max * factor) in
    let from_time, until_time = window ~latest_until:latest in
    let link =
      if Rng.int rng 2 = 0 then None
      else Some (Rng.int rng n, Rng.int rng n)
    in
    Delay_spike { link; from_time; until_time; factor }
  | 3 ->
    let from_time, until_time = window ~latest_until:healed_latest in
    Duplicate { from_time; until_time; copies = 1 + Rng.int rng 3 }
  | 4 ->
    Omega_flap
      { until_time = 4 + Rng.int rng (d / 2);
        period = 1 + Rng.int rng (3 * t.base.timer_period) }
  | 5 ->
    let from_time, until_time = window ~latest_until:(drop_safe_until t) in
    Drop { from_time; until_time; pct = 25 * (1 + Rng.int rng 4) }
  | 6 ->
    (* The window must close early enough for retransmission to catch the
       restarted process up before the horizon. *)
    let at, recover_at = window ~latest_until:healed_latest in
    Crash_recover { proc = Rng.int rng n; at; recover_at }
  | 7 ->
    let kind =
      match Rng.int rng 3 with
      | 0 -> Persist.Store.Torn_tail
      | 1 -> Persist.Store.Lost_suffix (1 + Rng.int rng 4)
      | _ -> Persist.Store.Corrupt_record
    in
    Disk_fault { proc = Rng.int rng n; kind }
  | 8 ->
    (* Split-brain: a contiguous run of n/2 processes against the rest. *)
    let off = Rng.int rng n in
    let left = List.init (max 1 (n / 2)) (fun i -> (off + i) mod n) in
    let from_time, until_time = window ~latest_until:(lossy_safe_until t) in
    Lossy_partition { left; from_time; until_time }
  | 9 ->
    (* Minority isolation: one process alone behind the loss. *)
    let from_time, until_time = window ~latest_until:(lossy_safe_until t) in
    Lossy_partition { left = [ Rng.int rng n ]; from_time; until_time }
  | 10 ->
    let from_time, until_time = window ~latest_until:(lossy_safe_until t) in
    Oneway_partition { left = random_side (); from_time; until_time }
  | 11 ->
    let from_time, until_time = window ~latest_until:(lossy_safe_until t) in
    Flapping_partition
      { left = random_side ();
        from_time;
        until_time;
        period = 1 + Rng.int rng (2 * t.base.timer_period) }
  | _ ->
    (* crash drawn but the environment admits none *)
    Duplicate { from_time = 0; until_time = base_max; copies = 1 }

(* Enforce plan-level invariants the independent draws cannot see: the
   crash count stays admitted by the environment (one crash per process),
   at most one flap survives, permanent crashes and downtime windows never
   hit the same process, recovery adversities only target Algorithm 5,
   and a disk fault without a window to apply it at is dead weight. *)
let sanitize t plan =
  let crashes = ref 0 and flapped = ref false in
  let crashed = Hashtbl.create 4 in
  let windowed = Hashtbl.create 4 in
  let recovery_ok = alg5_based t in
  let plan =
    List.filter
      (fun spec ->
         match spec with
         | Adversity.Crash { proc; _ } ->
           if Hashtbl.mem crashed proc || Hashtbl.mem windowed proc
              || !crashes >= max_crashes t
           then false
           else begin
             Hashtbl.add crashed proc ();
             incr crashes;
             true
           end
         | Adversity.Omega_flap _ ->
           if !flapped then false
           else begin
             flapped := true;
             true
           end
         | Adversity.Crash_recover { proc; _ } ->
           if (not recovery_ok) || Hashtbl.mem crashed proc
              || Hashtbl.mem windowed proc
           then false
           else begin
             Hashtbl.add windowed proc ();
             true
           end
         | Adversity.Disk_fault _ -> recovery_ok
         | _ -> true)
      plan
  in
  let windows = Adversity.recover_procs plan in
  List.filter
    (function
      | Adversity.Disk_fault { proc; _ } -> List.mem proc windows
      | _ -> true)
    plan

let random_plan t ~rng ~max_adversities =
  let k = Rng.int rng (max_adversities + 1) in
  let rec build i acc =
    if i = 0 then List.rev acc else build (i - 1) (random_spec t ~rng :: acc)
  in
  Adversity.make (sanitize t (build k []))

(* Plan [i] of an exploration: index 0 is always the empty plan (bugs that
   need no adversity at all should be found — and shrunk — immediately);
   later indices draw from an index-derived rng, so any plan can be
   regenerated without replaying the whole search. *)
let plan_at t ~seed ~max_adversities i =
  if i = 0 then []
  else
    let rng = Rng.create ((seed * 0x1000003) lxor (i * 0x9e3779b9)) in
    random_plan t ~rng ~max_adversities

(* Each plan runs under its own engine seed [seed + i], so the search
   also sweeps network randomness. *)
let plan_builder t ~seed ~max_adversities i =
  with_plan ~seed:(seed + i) t (plan_at t ~seed ~max_adversities i)

(* ------------------------------------------------------------------ *)
(* Exploration and shrinking                                           *)
(* ------------------------------------------------------------------ *)

type exploration = { found : outcome option; plans_run : int; budget : int }

(* Explore plans [0 .. budget-1] of template [t] ([plan_builder]).
   Sequential mode stops at the first violation; parallel mode fans chunks
   over domains through [Sweep.map_safe] and stops after the first chunk
   containing one, always reporting the lowest-index violation for
   determinism across domain counts. *)
let explore ?(domains = 1) t ~seed ~budget ~max_adversities =
  let gen = plan_builder t ~seed ~max_adversities in
  let finish found plans_run = { found; plans_run; budget } in
  if domains <= 1 then begin
    let rec go i =
      if i >= budget then finish None budget
      else begin
        let o = run ~digest:true ~catch:true (gen i) in
        if o.violations <> [] then finish (Some o) (i + 1) else go (i + 1)
      end
    in
    go 0
  end
  else begin
    let chunk = domains * 4 in
    let rec go i =
      if i >= budget then finish None budget
      else begin
        let hi = min budget (i + chunk) in
        let idxs = List.init (hi - i) (fun j -> i + j) in
        (* The sweep context attaches the failing plan's spec text to the
           error payload, so an uncaught worker exception is reproducible
           without re-running the exploration (builders with escape
           hatches have no text form; name the index instead). *)
        let context ~seed:idx =
          match to_lines (gen idx) with
          | lines -> String.concat "\n" lines
          | exception Invalid_argument _ ->
            Printf.sprintf "<plan %d: no spec form>" idx
        in
        let results =
          Sweep.map_safe ~domains ~context ~seeds:idxs (fun ~seed:idx ->
              run ~digest:true ~catch:true (gen idx))
        in
        let outcomes =
          List.map
            (fun (r : _ Sweep.result) ->
               match r.Sweep.value with
               | Ok o -> o
               | Error e ->
                 { builder = gen r.Sweep.seed;
                   trace = None;
                   report = None;
                   violations = [ "exception: " ^ e ];
                   digest = "" })
            results
        in
        match List.find_opt (fun o -> o.violations <> []) outcomes with
        | Some o -> finish (Some o) hi
        | None -> go hi
      end
    in
    go 0
  end

(* Greedy minimization to a local minimum: repeatedly drop whole
   adversities while a violation survives, then substitute each spec's
   weaker variants (re-running removal after every successful weakening).
   Candidates are the template's builders ([with_plan], so the stack is
   re-derived per plan) under the finding's own engine seed.  Terminates
   because removal shrinks the plan and every [Adversity.weaken] variant
   strictly decreases a positive integer measure of its spec. *)
let shrink t (o : outcome) =
  let seed = o.builder.base.seed in
  let try_plan plan =
    let o' = run ~digest:true ~catch:true (with_plan ~seed t plan) in
    if o'.violations <> [] then Some o' else None
  in
  let rec drop_pass o =
    let plan = o.builder.plan in
    let len = List.length plan in
    let rec try_at i =
      if i >= len then None
      else
        match try_plan (List.filteri (fun j _ -> j <> i) plan) with
        | Some o' -> Some o'
        | None -> try_at (i + 1)
    in
    match try_at 0 with Some o' -> drop_pass o' | None -> o
  in
  let rec weaken_pass o =
    let plan = Array.of_list o.builder.plan in
    let weaker_at i =
      List.find_map
        (fun weaker ->
           try_plan
             (Array.to_list
                (Array.mapi (fun j s -> if j = i then weaker else s) plan)))
        (Adversity.weaken plan.(i))
    in
    let rec at i =
      if i >= Array.length plan then None
      else match weaker_at i with Some o' -> Some o' | None -> at (i + 1)
    in
    match at 0 with Some o' -> weaken_pass (drop_pass o') | None -> o
  in
  weaken_pass (drop_pass o)

exception Parse of string

let parse_fail fmt = Printf.ksprintf (fun m -> raise (Parse m)) fmt
let at lineno fmt = Printf.ksprintf (fun m -> parse_fail "line %d: %s" lineno m) fmt

(* Key=value fields of a line tail, repro-file style. *)
let kv_fields fields =
  List.filter_map
    (fun f ->
       match String.index_opt f '=' with
       | None -> None
       | Some i ->
         Some
           (String.sub f 0 i, String.sub f (i + 1) (String.length f - i - 1)))
    fields

let tokens_of line =
  List.filter (( <> ) "") (String.split_on_char ' ' (String.trim line))

(* Shared by both parsers: take [count] plan lines, expect "end". *)
let parse_plan_section ~count rest =
  let rec take k acc = function
    | rest when k = 0 -> (List.rev acc, rest)
    | [] ->
      parse_fail "plan section truncated: expected %d adversity lines" count
    | l :: rest -> take (k - 1) (l :: acc) rest
  in
  let plan_lines, tail = take count [] rest in
  (match tail with
   | [ (_, "end") ] -> ()
   | (lineno, l) :: _ ->
     at lineno "expected end after %d plan lines, got %S" count l
   | [] -> parse_fail "missing end line (file truncated?)");
  List.map
    (fun (lineno, l) ->
       match Adversity.of_line l with
       | Ok spec -> (lineno, spec)
       | Error msg -> at lineno "%s" msg)
    plan_lines

(* Value bounds, checked once a reader has the whole builder.  A value the
   run's constructors reject would otherwise raise deep inside the run, so
   the check calls those same constructors (the engine's config check,
   [Failures], [Net]'s delay and fault models, the Omega oracle) and names
   the line that set the value; the bounds only the running engine or
   election would hit (post times, post counts, the election timeout) are
   stated here.  Base fields are checked one at a time over [create]'s
   defaults, so each error lands on its own line; the other clauses are
   then checked against the valid base.  [lines] maps a clause keyword to
   the line that last set it; a clause no line set holds its default,
   which is in range. *)
let check_bounds t ~lines ~posts ~plan =
  let checking lineno f =
    match f () with
    | () -> ()
    | exception Invalid_argument msg -> at lineno "%s" msg
  in
  let clause key f =
    Option.iter (fun lineno -> checking lineno f) (List.assoc_opt key lines)
  in
  let base b = Engine.check_config (Stacks.engine_config (base_setup b)) in
  let d = (create ~n:4 ~deadline:240 Gossip).base in
  clause "n" (fun () -> base { d with n = t.base.n });
  clause "deadline" (fun () -> base { d with deadline = t.base.deadline });
  clause "timer-period" (fun () ->
      base { d with timer_period = t.base.timer_period });
  clause "delay" (fun () -> base { d with delay = t.base.delay });
  (* [Stacks.omega_module] builds an oracle eagerly, checking its bounds. *)
  let omega s =
    let (_ : Engine.ctx -> _) = Stacks.omega_module s in
    ()
  in
  let s = setup_of { t with plan = []; boosts = [] } in
  clause "omega" (fun () ->
      match t.omega with
      | Some (Stacks.Elected { initial_timeout }) when initial_timeout < 1 ->
        invalid_arg "omega elected: timeout must be >= 1"
      | _ -> omega s);
  List.iter
    (fun (lineno, (tm, p, _)) ->
       checking lineno (fun () ->
           if tm < 0 then
             invalid_arg (Printf.sprintf "post at negative time %d" tm);
           if not (is_valid_proc ~n:t.base.n p) then
             invalid_arg (Printf.sprintf "post by unknown process %d" p)))
    posts;
  clause "workload" (fun () ->
      let nonneg field v =
        if v < 0 then
          invalid_arg
            (Printf.sprintf "workload: %s must be >= 0, got %d" field v)
      in
      match t.workload with
      | Posts { count; from_time; every }
      | Weighted { count; from_time; every; _ } ->
        nonneg "count" count;
        nonneg "from" from_time;
        nonneg "every" every
      | Auto_posts { count; _ } -> nonneg "count" count
      | No_posts | Explicit _ -> ());
  List.iter
    (fun (lineno, spec) ->
       checking lineno (fun () -> omega (Adversity.apply [ spec ] s)))
    plan

(* The legacy repro header: the old explorer's target fields, mapped onto
   builder clauses with the exploration stack rules ([etob_stack], then
   [with_plan]) and posting policy, so a recorded repro replays
   byte-identically through the builder path.  The plan is kept verbatim
   (not normalized). *)
let parse_legacy rest =
  let impl = ref Stacks.Algorithm_5 in
  let mutation = ref None and rmutation = ref None and ae_mutation = ref None in
  let n = ref 4 and seed = ref 0 and deadline = ref 240 in
  let timer_period = ref 2 and posts = ref 12 in
  let base_min = ref 1 and base_max = ref 3 in
  let recovery = ref false and ae = ref false and watchdog = ref false in
  let lines = ref [] in
  let finish plan =
    let stack =
      etob_stack
        ~recovery:(!recovery || Option.is_some !rmutation)
        ~ae:(!ae || Option.is_some !ae_mutation)
        !impl
    in
    let t =
      with_plan
        { (create ~seed:!seed ~timer_period:!timer_period
             ~delay:(Uniform { min_d = !base_min; max_d = !base_max })
             ~n:!n ~deadline:!deadline stack)
          with
          workload = Auto_posts { count = !posts; stretch = !recovery };
          mutation = !mutation;
          rmutation = !rmutation;
          ae_mutation = !ae_mutation;
          checkers =
            Etob_spec Tau_auto
            :: (if !watchdog then [ Watchdog Wd_auto ] else []) }
        (List.map snd plan)
    in
    check_bounds t ~lines:!lines ~posts:[] ~plan;
    t
  in
  let flag lineno key v r =
    match v with
    | "on" | "true" -> r := true
    | "off" | "false" -> r := false
    | _ -> at lineno "%s must be on or off, got %S" key v
  in
  let rec headers = function
    | [] -> parse_fail "missing plan section (file truncated?)"
    | (lineno, line) :: rest ->
      let key, v =
        match String.index_opt line ' ' with
        | None -> (line, "")
        | Some i ->
          ( String.sub line 0 i,
            String.trim (String.sub line (i + 1) (String.length line - i - 1))
          )
      in
      let int v =
        match int_of_string_opt v with
        | Some i -> i
        | None -> at lineno "expected an integer, got %S" v
      in
      (* base-min and base-max set the delay together: an out-of-range
         pair names the later of the two lines. *)
      let clause =
        match key with
        | "base-min" | "base-max" -> "delay"
        | "posts" -> "workload"
        | key -> key
      in
      lines := (clause, lineno) :: !lines;
      (match key with
       | "impl" ->
         (match
            (match v with
             | "alg5" -> Some Stacks.Algorithm_5
             | "paxos" -> Some Stacks.Paxos_baseline
             | "alg1" -> Some Stacks.Algorithm_1_over_4
             | _ -> None)
          with
          | Some i -> impl := i
          | None -> at lineno "unknown impl %S" v);
         headers rest
       | "mutant" ->
         (if v <> "none" then
            match Etob_omega.mutation_of_string v with
            | Some m -> mutation := Some m
            | None -> at lineno "unknown mutant %S" v);
         headers rest
       | "rmutant" ->
         (if v <> "none" then
            match Recoverable.mutation_of_string v with
            | Some m -> rmutation := Some m
            | None -> at lineno "unknown recovery mutant %S" v);
         headers rest
       | "ae-mutant" ->
         (if v <> "none" then
            match Anti_entropy.mutation_of_string v with
            | Some m -> ae_mutation := Some m
            | None -> at lineno "unknown anti-entropy mutant %S" v);
         headers rest
       | "recovery" -> flag lineno key v recovery; headers rest
       | "ae" -> flag lineno key v ae; headers rest
       | "watchdog" -> flag lineno key v watchdog; headers rest
       | "n" -> n := int v; headers rest
       | "seed" -> seed := int v; headers rest
       | "deadline" -> deadline := int v; headers rest
       | "timer-period" -> timer_period := int v; headers rest
       | "posts" -> posts := int v; headers rest
       | "base-min" -> base_min := int v; headers rest
       | "base-max" -> base_max := int v; headers rest
       | "digest" | "violation" -> headers rest
       | "plan" -> finish (parse_plan_section ~count:(int v) rest)
       | k -> at lineno "unknown header %S" k)
  in
  headers rest

let parse_new rest =
  let t = ref (create ~n:4 ~deadline:240 (Etob Stacks.Algorithm_5)) in
  let set_base f = t := { !t with base = f !t.base } in
  let checkers = ref [] and boosts = ref [] and posts = ref [] in
  let explicit = ref false and lines = ref [] in
  let finish plan =
    let workload =
      if !explicit then Explicit (List.rev_map snd !posts) else !t.workload
    in
    let t =
      { !t with
        workload;
        plan = Adversity.make (List.map snd plan);
        checkers = List.rev !checkers;
        boosts = List.rev !boosts }
    in
    check_bounds t ~lines:!lines ~posts:(List.rev !posts) ~plan;
    t
  in
  let rec headers = function
    | [] -> parse_fail "missing plan section (file truncated?)"
    | (lineno, line) :: rest ->
      let int v =
        match int_of_string_opt v with
        | Some i -> i
        | None -> at lineno "expected an integer, got %S" v
      in
      let kv_int kv k =
        match List.assoc_opt k kv with
        | Some v -> int v
        | None -> at lineno "missing field %s" k
      in
      let tokens = tokens_of line in
      (match tokens with
       | key :: _ -> lines := (key, lineno) :: !lines
       | [] -> ());
      (match tokens with
       | [] -> headers rest
       | "stack" :: [ name ] ->
         (match stack_of_name name with
          | Some stack -> t := { !t with stack }
          | None -> at lineno "unknown stack %S" name);
         headers rest
       | "n" :: [ v ] -> set_base (fun d -> { d with n = int v }); headers rest
       | "seed" :: [ v ] ->
         set_base (fun d -> { d with seed = int v });
         headers rest
       | "deadline" :: [ v ] ->
         set_base (fun d -> { d with deadline = int v });
         headers rest
       | "timer-period" :: [ v ] ->
         set_base (fun d -> { d with timer_period = int v });
         headers rest
       | "delay" :: "constant" :: [ v ] ->
         set_base (fun d -> { d with delay = Constant (int v) });
         headers rest
       | "delay" :: "uniform" :: fields ->
         let kv = kv_fields fields in
         set_base (fun d ->
             { d with
               delay =
                 Uniform { min_d = kv_int kv "min"; max_d = kv_int kv "max" } });
         headers rest
       | "omega" :: "oracle" :: fields ->
         let kv = kv_fields fields in
         let pre =
           match List.assoc_opt "pre" kv with
           | None -> Detectors.Omega.Self_trust
           | Some p ->
             (match pre_of_string p with
              | Some pre -> pre
              | None -> at lineno "unknown omega pre-behaviour %S" p)
         in
         t :=
           { !t with
             omega =
               Some (Stacks.Oracle { stabilize_at = kv_int kv "stable"; pre })
           };
         headers rest
       | "omega" :: "elected" :: fields ->
         let kv = kv_fields fields in
         t :=
           { !t with
             omega =
               Some (Stacks.Elected { initial_timeout = kv_int kv "timeout" })
           };
         headers rest
       | "workload" :: [ "none" ] ->
         t := { !t with workload = No_posts };
         headers rest
       | "workload" :: "posts" :: fields ->
         let kv = kv_fields fields in
         t :=
           { !t with
             workload =
               Posts
                 { count = kv_int kv "count";
                   from_time = kv_int kv "from";
                   every = kv_int kv "every" } };
         headers rest
       | "workload" :: "auto" :: fields ->
         let kv = kv_fields fields in
         let stretch =
           match List.assoc_opt "stretch" kv with
           | Some "on" | Some "true" -> true
           | Some "off" | Some "false" | None -> false
           | Some v -> at lineno "stretch must be on or off, got %S" v
         in
         t :=
           { !t with
             workload = Auto_posts { count = kv_int kv "count"; stretch } };
         headers rest
       | "workload" :: "weighted" :: fields ->
         let kv = kv_fields fields in
         let mix =
           match List.assoc_opt "mix" kv with
           | None -> at lineno "missing field mix"
           | Some m ->
             List.map
               (fun entry ->
                  match String.index_opt entry ':' with
                  | None -> at lineno "bad mix entry %S" entry
                  | Some i ->
                    ( String.sub entry 0 i,
                      int
                        (String.sub entry (i + 1)
                           (String.length entry - i - 1)) ))
               (String.split_on_char ',' m)
         in
         t :=
           { !t with
             workload =
               Weighted
                 { count = kv_int kv "count";
                   from_time = kv_int kv "from";
                   every = kv_int kv "every";
                   jitter = kv_int kv "jitter";
                   mix } };
         headers rest
       | [ "workload"; "explicit" ] ->
         explicit := true;
         headers rest
       | "post" :: tm :: p :: tag_words when !explicit ->
         let post = (int tm, int p, String.concat " " tag_words) in
         posts := (lineno, post) :: !posts;
         headers rest
       | "service" :: fields ->
         (match Service_spec.of_fields (kv_fields fields) with
          | Ok s -> t := { !t with service = Some s }
          | Error msg -> at lineno "service: %s" msg);
         headers rest
       | "mutant" :: [ v ] ->
         (if v <> "none" then
            match Etob_omega.mutation_of_string v with
            | Some m -> t := { !t with mutation = Some m }
            | None -> at lineno "unknown mutant %S" v);
         headers rest
       | "rmutant" :: [ v ] ->
         (if v <> "none" then
            match Recoverable.mutation_of_string v with
            | Some m -> t := { !t with rmutation = Some m }
            | None -> at lineno "unknown recovery mutant %S" v);
         headers rest
       | "ae-mutant" :: [ v ] ->
         (if v <> "none" then
            match Anti_entropy.mutation_of_string v with
            | Some m -> t := { !t with ae_mutation = Some m }
            | None -> at lineno "unknown anti-entropy mutant %S" v);
         headers rest
       | "boost" :: "drop-while-partitioned" :: fields ->
         let kv = kv_fields fields in
         boosts :=
           Drop_boost_while_partitioned { factor = kv_int kv "factor" }
           :: !boosts;
         headers rest
       | "check" :: "etob" :: fields ->
         let kv = kv_fields fields in
         let policy =
           match List.assoc_opt "tau" kv with
           | Some "auto" | None -> Tau_auto
           | Some v -> Tau_fixed (int v)
         in
         checkers := Etob_spec policy :: !checkers;
         headers rest
       | [ "check"; "watchdog"; "auto" ] ->
         checkers := Watchdog Wd_auto :: !checkers;
         headers rest
       | "check" :: "watchdog" :: fields ->
         let kv = kv_fields fields in
         checkers :=
           Watchdog
             (Wd_fixed
                { settle = kv_int kv "settle"; bound = kv_int kv "bound" })
           :: !checkers;
         headers rest
       | "max-instance" :: [ v ] ->
         t := { !t with max_instance = int v };
         headers rest
       | "budget" :: [ v ] ->
         t := { !t with budget = Some (int v) };
         headers rest
       | "digest" :: _ | "violation" :: _ -> headers rest
       | "plan" :: [ v ] -> finish (parse_plan_section ~count:(int v) rest)
       | _ -> at lineno "unknown spec line %S" line)
  in
  headers rest

let of_lines lines =
  let lines =
    List.filteri
      (fun _ (_, l) -> l <> "")
      (List.mapi (fun i l -> (i + 1, String.trim l)) lines)
  in
  let parse () =
    match lines with
    | (_, h) :: rest when h = header -> parse_new rest
    | (_, h) :: rest when h = legacy_header -> parse_legacy rest
    | (lineno, l) :: _ ->
      parse_fail "line %d: not a %s or %s file (found %S)" lineno header
        legacy_header l
    | [] -> parse_fail "empty file: not a %s file" header
  in
  match parse () with t -> Ok t | exception Parse msg -> Error msg

let of_string s = of_lines (String.split_on_char '\n' s)

let recorded_digest s =
  List.find_map
    (fun line ->
       match tokens_of line with
       | [ "digest"; v ] when v <> "-" -> Some v
       | _ -> None)
    (String.split_on_char '\n' s)

(* The one replay verdict for a recorded finding, whatever its text form:
   the run must reproduce the recorded digest byte for byte, and a
   recorded violation must reappear. *)
let replay text =
  match of_string text with
  | Error msg -> Error ("parse: " ^ msg)
  | Ok b ->
    let o = run ~digest:true ~catch:true b in
    let recorded_violation =
      List.exists
        (fun line ->
           match tokens_of line with "violation" :: _ -> true | _ -> false)
        (String.split_on_char '\n' text)
    in
    (match recorded_digest text with
     | Some d when not (String.equal d o.digest) ->
       Error
         (Printf.sprintf "digest mismatch: recorded %s, replayed %s" d
            o.digest)
     | _ when recorded_violation && o.violations = [] ->
       Error "recorded violation did not reproduce"
     | _ -> Ok o)

let finding_text (o : outcome) =
  to_string ~digest:o.digest ~violations:o.violations o.builder

let write path ?digest ?violations t =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (to_string ?digest ?violations t))

let read path =
  match In_channel.with_open_text path In_channel.input_all with
  | s -> of_string s
  | exception Sys_error msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Binary trace artifacts                                              *)
(* ------------------------------------------------------------------ *)

(* A binary trace artifact is a self-contained replay unit: the event
   stream written by [trace_out], followed by one appended spec record
   carrying the run's spec text (with digest and violations).  Appending
   is legal in the frame format — readers take the last spec record — so
   the spec, known only after the run, never has to be seeked in. *)

let append_binary_spec path ?digest ?violations t =
  let text = to_string ?digest ?violations t in
  let oc = Out_channel.open_gen [ Open_append; Open_binary ] 0o644 path in
  Fun.protect
    ~finally:(fun () -> Out_channel.close_noerr oc)
    (fun () -> Out_channel.output_string oc (Persist.Frame.spec_record text))

(* The one finding writer: spec text, or for a [.bin] path a binary trace
   artifact — the finding re-run streaming its events, with its spec
   record appended so the file replays on its own. *)
let write_finding path (o : outcome) =
  if Filename.check_suffix path ".bin" then begin
    let b = o.builder in
    ignore (run ~catch:true { b with trace_out = Some (path, Binary) });
    append_binary_spec path ~digest:o.digest ~violations:o.violations b
  end
  else
    Out_channel.with_open_text path (fun oc ->
        Out_channel.output_string oc (finding_text o))

let binary_spec path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | contents ->
    (match Persist.Frame.decode contents with
     | Error e -> Error (Format.asprintf "%s: %a" path Persist.Frame.pp_error e)
     | Ok items ->
       (match Persist.Frame.spec items with
        | Some text -> Ok text
        | None -> Error (path ^ ": binary trace carries no spec record")))

(* ------------------------------------------------------------------ *)
(* QCheck generators                                                   *)
(* ------------------------------------------------------------------ *)

(* Deliberately NOT fairness-clamped (unlike [plan_at], which keeps
   plans recoverable so liveness checks are meaningful): safety
   properties must hold under any plan whatsoever, so these cover the whole
   space — drop windows that never heal, partitions to the horizon,
   flapping forever.  Plan generators normalize through [Adversity.make],
   so the text-form roundtrip is structural equality. *)

let subset_gen n =
  let open QCheck.Gen in
  let* mask = int_range 1 ((1 lsl n) - 2) in
  return (List.filter (fun p -> mask land (1 lsl p) <> 0) (List.init n Fun.id))

let window_gen deadline =
  let open QCheck.Gen in
  let* from_time = int_range 0 (deadline - 2) in
  let* len = int_range 1 (deadline - from_time) in
  return (from_time, from_time + len)

let spec_gen ~n ~deadline =
  let open QCheck.Gen in
  frequency
    [ ( 1,
        let* proc = int_range 1 (n - 1) in
        let* at = int_range 0 deadline in
        return (Adversity.Crash { proc; at }) );
      ( 2,
        let* left = subset_gen n in
        let* from_time, until_time = window_gen deadline in
        return (Adversity.Partition { left; from_time; until_time }) );
      ( 2,
        let* link =
          oneof
            [ return None;
              (let* src = int_range 0 (n - 1) in
               let* dst = int_range 0 (n - 1) in
               return (if src = dst then None else Some (src, dst))) ]
        in
        let* from_time, until_time = window_gen deadline in
        let* factor = int_range 2 6 in
        return (Adversity.Delay_spike { link; from_time; until_time; factor })
      );
      ( 2,
        let* from_time, until_time = window_gen deadline in
        let* pct = int_range 1 100 in
        return (Adversity.Drop { from_time; until_time; pct }) );
      ( 2,
        let* from_time, until_time = window_gen deadline in
        let* copies = int_range 1 3 in
        return (Adversity.Duplicate { from_time; until_time; copies }) );
      ( 2,
        let* until_time = int_range 1 deadline in
        let* period = int_range 1 6 in
        return (Adversity.Omega_flap { until_time; period }) ) ]

let plan_gen ~n ~deadline =
  QCheck.Gen.map Adversity.make
    QCheck.Gen.(list_size (int_range 0 5) (spec_gen ~n ~deadline))

let spec_shrink spec = QCheck.Iter.of_list (Adversity.weaken spec)

let plan_print plan = String.concat "; " (Adversity.to_lines plan)

let plan_arb ~n ~deadline =
  QCheck.make ~print:plan_print
    ~shrink:(QCheck.Shrink.list ~shrink:spec_shrink)
    (plan_gen ~n ~deadline)

(* Crash-recover windows and disk faults over processes 1..n-1.  Windows
   may overlap, touch, or sit anywhere in the horizon, and disk faults may
   target processes that never restart (then they are no-ops). *)
let recovery_spec_gen ~n ~deadline =
  let open QCheck.Gen in
  let* proc = int_range 1 (n - 1) in
  frequency
    [ ( 3,
        let* at = int_range 1 (deadline - 2) in
        let* len = int_range 1 (deadline - at) in
        return (Adversity.Crash_recover { proc; at; recover_at = at + len }) );
      ( 1,
        let* kind =
          oneofl
            [ Persist.Store.Torn_tail;
              Persist.Store.Lost_suffix 1;
              Persist.Store.Lost_suffix 3;
              Persist.Store.Corrupt_record ]
        in
        return (Adversity.Disk_fault { proc; kind }) ) ]

let recovery_plan_gen ~n ~deadline =
  let open QCheck.Gen in
  let* base = list_size (int_range 0 2) (spec_gen ~n ~deadline) in
  let* rec_specs = list_size (int_range 1 3) (recovery_spec_gen ~n ~deadline) in
  return (Adversity.make (base @ rec_specs))

let recovery_plan_arb ~n ~deadline =
  QCheck.make ~print:plan_print
    ~shrink:(QCheck.Shrink.list ~shrink:spec_shrink)
    (recovery_plan_gen ~n ~deadline)

(* Lossy, one-way and flapping partitions anywhere in the horizon —
   including schedules that never heal before the deadline or cut the
   leader off asymmetrically. *)
let partition_loss_spec_gen ~n ~deadline =
  let open QCheck.Gen in
  let* left = subset_gen n in
  frequency
    [ ( 2,
        let* from_time, until_time = window_gen deadline in
        return (Adversity.Lossy_partition { left; from_time; until_time }) );
      ( 1,
        let* from_time, until_time = window_gen deadline in
        return (Adversity.Oneway_partition { left; from_time; until_time }) );
      ( 1,
        let* from_time, until_time = window_gen deadline in
        let* period = int_range 1 6 in
        return
          (Adversity.Flapping_partition { left; from_time; until_time; period })
      ) ]

let partition_recovery_plan_gen ~n ~deadline =
  let open QCheck.Gen in
  let* base = list_size (int_range 0 2) (spec_gen ~n ~deadline) in
  let* losses =
    list_size (int_range 1 3) (partition_loss_spec_gen ~n ~deadline)
  in
  let* rec_specs = list_size (int_range 0 2) (recovery_spec_gen ~n ~deadline) in
  return (Adversity.make (base @ losses @ rec_specs))

let partition_recovery_plan_arb ~n ~deadline =
  QCheck.make ~print:plan_print
    ~shrink:(QCheck.Shrink.list ~shrink:spec_shrink)
    (partition_recovery_plan_gen ~n ~deadline)

let arbitrary =
  let open QCheck.Gen in
  let gen =
    let* n = int_range 3 5 in
    let* seed = int_range 0 999 in
    let* deadline = int_range 120 300 in
    let* delay =
      oneof
        [ (let* d = int_range 1 2 in
           return (Constant d));
          (let* min_d = int_range 1 2 in
           let* span = int_range 0 3 in
           return (Uniform { min_d; max_d = min_d + span })) ]
    in
    let* stack =
      oneofl
        [ Etob Stacks.Algorithm_5;
          Etob Stacks.Paxos_baseline;
          Etob Stacks.Algorithm_1_over_4;
          Etob_ae;
          Recoverable { ae = false };
          Recoverable { ae = true };
          Gossip ]
    in
    let* workload =
      oneof
        [ return No_posts;
          (let* count = int_range 1 20 in
           let* from_time = int_range 0 20 in
           let* every = int_range 1 8 in
           return (Posts { count; from_time; every }));
          (let* count = int_range 1 20 in
           let* stretch = bool in
           return (Auto_posts { count; stretch }));
          (let* count = int_range 1 12 in
           let* every = int_range 1 8 in
           let* jitter = int_range 0 3 in
           return
             (Weighted
                { count;
                  from_time = 8;
                  every;
                  jitter;
                  mix = [ ("a", 3); ("b", 1) ] })) ]
    in
    let* plan = plan_gen ~n ~deadline in
    let* checkers =
      oneofl
        [ [];
          [ Etob_spec Tau_auto ];
          [ Etob_spec Tau_auto; Watchdog Wd_auto ];
          [ Etob_spec (Tau_fixed 40) ] ]
    in
    let* boosts =
      oneofl [ []; [ Drop_boost_while_partitioned { factor = 2 } ] ]
    in
    let* mutation =
      oneofl (None :: List.map Option.some Etob_omega.all_mutations)
    in
    let* omega =
      oneofl
        [ None;
          Some
            (Stacks.Oracle
               { stabilize_at = 0; pre = Detectors.Omega.Self_trust });
          Some
            (Stacks.Oracle
               { stabilize_at = 40; pre = Detectors.Omega.Rotating 3 });
          Some (Stacks.Elected { initial_timeout = 6 }) ]
    in
    let* budget = oneofl [ None; Some 100 ] in
    let* service =
      oneof [ return None; map Option.some Service_spec.gen ]
    in
    return
      { (create ~seed ~delay ~n ~deadline stack) with
        workload;
        plan;
        checkers;
        boosts;
        mutation;
        omega;
        budget;
        service }
  in
  QCheck.make
    ~print:(fun b -> to_string b)
    ~shrink:(fun b ->
      QCheck.Iter.map
        (fun plan -> { b with plan })
        (QCheck.Shrink.list ~shrink:spec_shrink b.plan))
    gen
