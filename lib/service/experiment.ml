(* Experiment E22: measured availability under faults, ETOB vs Paxos.

   One crash+partition schedule, two runs that differ only in the
   replication stack: Algorithm 5 with the committed prefix (speculative
   reads to degrade to) versus the Paxos strong baseline (one view, no
   degradation).  Five replicas; a lossy partition isolates the {3,4}
   minority for [60, 180), and a majority replica crashes at 200 — after
   the heal — to exercise crash-triggered session migration and the retry
   dedup path.

   During the partition, minority-pinned clients of the ETOB stack fail
   their strong (committed-prefix) requests, trip the breaker, and degrade
   to speculative operations that the minority's block leader keeps
   serving; the same clients of the Paxos stack can still read stale state
   but every write needs a majority and dies exhausting its retry budget.
   The availability gate demands the gap be strict.  The remaining gates
   pin the robustness loop itself: retry amplification stays bounded,
   replica-side dedup lets zero duplicate applies through, and the whole
   closed loop is deterministic (same spec + seed -> byte-identical trace
   digest on a rerun).

   This module computes the record; the callers (bench E22, `ecsim
   service`) print their tables and write it. *)

open Simulator
open Harness

let replicas = 5
let deadline = 280
let blocks = [ [ 0; 1; 2 ]; [ 3; 4 ] ]
let partition_from = 60
let partition_until = 180
let crash_proc = 1
let crash_at_time = 200
let minority = [ 3; 4 ]

(* Measured strictly inside the partition so edge requests straddling the
   cut or the heal don't blur the gap. *)
let probe_from = partition_from + 10
let probe_until = partition_until - 10

let spec =
  { Service_spec.clients = 6;
    arrival = Service_spec.Closed { think = 3 };
    keys = 4;
    skew_pct = 30;
    write_pct = 60;
    req_deadline = 16;
    retries = 3;
    backoff_base = 2;
    backoff_cap = 12;
    jitter_pct = 50;
    queue_limit = 8;
    breaker_k = 2;
    breaker_cooldown = 16;
    strong = true;
    migrate_after = 3;
    window = 20 }

let setup ~seed =
  { (Stacks.default ~n:replicas ~deadline) with
    seed;
    faults =
      Net.lossy_partition
        { blocks; from_time = partition_from; until_time = partition_until };
    pattern =
      Failures.crash_at (Failures.none ~n:replicas) crash_proc crash_at_time;
    omega =
      Stacks.Oracle
        { stabilize_at = partition_until;
          pre = Detectors.Omega.Blockwise blocks } }

type side = {
  s_name : string;
  s_outcome : Runner.outcome;
  s_minority : int * int;
}

type t = { etob : side; paxos : side; record : Record.t }

let side ~name ~seed impl =
  let outcome = Runner.run ~setup:(setup ~seed) ~spec ~impl in
  { s_name = name;
    s_outcome = outcome;
    s_minority =
      Metrics.availability_in outcome.trace ~endpoints:minority
        ~from_time:probe_from ~until_time:probe_until }

let max_amplification = 2.0

let side_json s =
  let o = s.s_outcome in
  let r = o.report in
  let started, ok = s.s_minority in
  let lat =
    match r.latency with
    | None -> Record.Null
    | Some l ->
      Record.(
        Obj
          [ ("count", Int l.count); ("p50", Int l.p50); ("p95", Int l.p95);
            ("p99", Int l.p99); ("p999", Int l.p999); ("max", Int l.max) ])
  in
  Record.(
    Obj
      [ ("impl", String s.s_name); ("requests", Int r.requests); ("ok", Int r.ok);
        ("failed", Int r.failed);
        ("availability", Float (Metrics.availability r));
        ("minority_started", Int started); ("minority_ok", Int ok);
        ("minority_availability", Float (Metrics.ratio s.s_minority));
        ("attempts", Int r.attempts); ("retries", Int r.retries);
        ("amplification", Float (Metrics.amplification r));
        ("max_attempts", Int r.max_attempts);
        ( "goodput_per_kilotick",
          Int (Metrics.goodput_per_kilotick r ~horizon:o.horizon) );
        ("sheds", Int r.sheds); ("duplicate_submits", Int r.duplicate_submits);
        ("migrations", Int r.migrations); ("breaker_opens", Int r.breaker_opens);
        ("strong_ok", Int r.strong_ok); ("weak_ok", Int r.weak_ok);
        ("duplicates_delivered", Int o.duplicates_delivered);
        ("suppressed", Int o.suppressed); ("dedup_ok", Bool o.dedup_ok);
        ("digest", String o.digest); ("latency", lat) ])

let run ?(seed = 42) () =
  let since = Record.since () in
  let etob = side ~name:"etob" ~seed Stacks.Algorithm_5 in
  let paxos = side ~name:"paxos" ~seed Stacks.Paxos_baseline in
  let replay = side ~name:"etob-replay" ~seed Stacks.Algorithm_5 in
  let e_started, _ = etob.s_minority and p_started, _ = paxos.s_minority in
  let max_tries =
    max etob.s_outcome.report.max_attempts paxos.s_outcome.report.max_attempts
  in
  let gates =
    Record.
      [ gate "availability-gap etob started" (Int e_started) Gt (Int 0);
        gate "availability-gap paxos started" (Int p_started) Gt (Int 0);
        gate "availability-gap"
          (Float (Metrics.ratio etob.s_minority))
          Gt
          (Float (Metrics.ratio paxos.s_minority));
        gate "retry-amplification"
          (Float (Metrics.amplification etob.s_outcome.report))
          Le (Float max_amplification);
        gate "retry-amplification max attempts" (Int max_tries) Le
          (Int (1 + spec.retries));
        gate "dedup etob" (Bool etob.s_outcome.dedup_ok) Eq (Bool true);
        gate "dedup paxos" (Bool paxos.s_outcome.dedup_ok) Eq (Bool true);
        gate "determinism" (String replay.s_outcome.digest) Eq
          (String etob.s_outcome.digest) ]
  in
  let params =
    Record.
      [ ("replicas", Int replicas); ("clients", Int spec.clients);
        ("deadline", Int deadline);
        ("partition", List [ Int partition_from; Int partition_until ]);
        ("crash", Obj [ ("proc", Int crash_proc); ("at", Int crash_at_time) ]);
        ("spec", String (Service_spec.to_string spec)) ]
  in
  { etob;
    paxos;
    record =
      Record.make ~name:"service" ~experiment:"E22" ~since ~params
        ~rows:[ side_json etob; side_json paxos ]
        gates }

(* The raw per-request latency series, for the CI failure artifact: enough
   to re-derive any histogram offline. *)
let histogram s =
  let lats =
    List.filter_map
      (fun (_, _, output) ->
        match output with
        | Wire.Completed { ok = true; latency; _ } -> Some (Record.Int latency)
        | _ -> None)
      (Trace.outputs s.s_outcome.trace)
  in
  Record.(
    Obj
      [ ("impl", String s.s_name); ("count", Int (List.length lats));
        ("latencies_ticks", List lats) ])

(* Deterministic QCheck sampling of service specs, shared by the smoke
   gate and the generator tests. *)
let sample_specs ~seed ~count =
  (* detlint: allow D1 the state is derived from the caller's fixed seed, so every sampled spec replays deterministically *)
  let rand = Random.State.make [| 0x5e11; seed |] in
  QCheck.Gen.generate ~n:count ~rand Service_spec.gen
