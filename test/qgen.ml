(* Shared QCheck arbitraries and shrinkers over simulator and adversity
   domain values: failure-pattern crash lists, adversity plans and base
   delay-model bounds.

   The adversity generators live in [Harness.Builder] since the builder
   refactor (the builder's spec-file roundtrip property runs over the same
   space); this module re-exports them under the historical names and
   keeps only the simulator-level generators local.

   Plans generated here are deliberately NOT fairness-clamped (unlike
   [Harness.Builder.plan_at], which keeps plans recoverable so that
   liveness checks are meaningful): safety properties must hold under any
   plan whatsoever, so these generators cover the whole space — drop
   windows that never heal, partitions to the horizon, flapping forever.
   They are [Adversity.make]-normalized, so generated plans equal their
   own text-form roundtrip.  Shrinkers are structural: drop whole
   elements, then substitute the strictly weaker variants of
   [Adversity.weaken]. *)

module Builder = Harness.Builder

(* ------------------------------------------------------------------ *)
(* Failure patterns, as crash lists                                    *)
(* ------------------------------------------------------------------ *)

(* Up to [max_faulty] crashes among processes 1..n-1 (process 0 always
   stays correct, so any environment admits the result), at arbitrary
   times within the horizon.  Duplicate processes are fine: [of_crashes]
   keeps the earliest time. *)
let crash_list_gen ~n ~max_faulty ~horizon =
  let open QCheck.Gen in
  list_size
    (int_range 0 (min max_faulty (n - 1)))
    (pair (int_range 1 (n - 1)) (int_range 0 horizon))

let crash_list_arb ~n ~max_faulty ~horizon =
  QCheck.make
    ~print:QCheck.Print.(list (pair int int))
    ~shrink:QCheck.Shrink.list
    (crash_list_gen ~n ~max_faulty ~horizon)

let pattern_of_crashes ~n crashes = Simulator.Failures.of_crashes ~n crashes

(* ------------------------------------------------------------------ *)
(* Adversity plans (re-exported from Harness.Builder)                  *)
(* ------------------------------------------------------------------ *)

let subset_gen = Builder.subset_gen
let window_gen = Builder.window_gen
let spec_gen = Builder.spec_gen
let plan_gen = Builder.plan_gen
let spec_shrink = Builder.spec_shrink
let plan_arb = Builder.plan_arb
let recovery_spec_gen = Builder.recovery_spec_gen
let recovery_plan_gen = Builder.recovery_plan_gen
let recovery_plan_arb = Builder.recovery_plan_arb
let partition_loss_spec_gen = Builder.partition_loss_spec_gen
let partition_recovery_plan_gen = Builder.partition_recovery_plan_gen
let partition_recovery_plan_arb = Builder.partition_recovery_plan_arb

(* ------------------------------------------------------------------ *)
(* Base delay-model bounds (Net.uniform parameters)                    *)
(* ------------------------------------------------------------------ *)

let delay_bounds_gen =
  let open QCheck.Gen in
  let* min_delay = int_range 1 4 in
  let* span = int_range 0 4 in
  return (min_delay, min_delay + span)

let delay_bounds_arb =
  QCheck.make
    ~print:QCheck.Print.(pair int int)
    ~shrink:QCheck.Shrink.(pair nil nil)
    delay_bounds_gen

(* ------------------------------------------------------------------ *)
(* Binary trace records (Persist.Frame) and WAL payloads               *)
(* ------------------------------------------------------------------ *)

module Frame = Persist.Frame

(* Rendered values cover the whole byte range — JSON metacharacters,
   control characters, NUL, high bytes — so roundtrips exercise every
   encoder path, and times/uids reach multi-byte varint territory. *)
let frame_string_gen =
  let open QCheck.Gen in
  string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 24)

let frame_event_gen =
  let open QCheck.Gen in
  let t = int_range 0 1_000_000 in
  let proc = int_range 0 15 in
  let uid = int_range 0 10_000_000 in
  oneof
    [ (let* t = t in
       let* proc = proc in
       let* v = frame_string_gen in
       return (Frame.Input { t; proc; v }));
      (let* t = t in
       let* proc = proc in
       let* v = frame_string_gen in
       return (Frame.Output { t; proc; v }));
      (let* t = t in
       let* src = proc in
       let* dst = proc in
       let* uid = uid in
       return (Frame.Send { t; src; dst; uid }));
      (let* t = t in
       let* src = proc in
       let* dst = proc in
       let* uid = uid in
       let* lat = int_range 0 1_000 in
       return (Frame.Deliver { t; src; dst; uid; lat }));
      (let* t = t in
       let* src = proc in
       let* dst = proc in
       let* uid = uid in
       return (Frame.Drop { t; src; dst; uid }));
      (let* t = t in
       let* proc = proc in
       return (Frame.Crash { t; proc }));
      (let* t = t in
       let* proc = proc in
       return (Frame.Recover { t; proc })) ]

let frame_events_gen =
  QCheck.Gen.(list_size (int_range 0 40) frame_event_gen)

let frame_events_arb =
  QCheck.make
    ~print:(fun evs ->
        String.concat "\n" (List.map Frame.event_to_jsonl evs))
    ~shrink:QCheck.Shrink.list frame_events_gen

(* WAL payloads in the shape protocols actually log (short text records,
   see lib/core/recoverable.ml) but over arbitrary bytes.  Non-empty:
   protocols never append the empty record, and the documented Md5/Crc32
   behavioural corner is exactly the torn empty record (Store.mli). *)
let wal_payload_gen =
  QCheck.Gen.(
    string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 1 60))

let wal_payloads_gen =
  QCheck.Gen.(list_size (int_range 1 24) wal_payload_gen)

let wal_payloads_arb =
  QCheck.make
    ~print:QCheck.Print.(list string)
    ~shrink:QCheck.Shrink.(list ~shrink:string)
    wal_payloads_gen

(* ------------------------------------------------------------------ *)
(* Service-layer client populations                                    *)
(* ------------------------------------------------------------------ *)

(* These generators live with the spec in [Harness.Service_spec] so the
   smoke gate (`ecsim service --smoke`) can sample them without the test
   tree; re-exported here so test arbitraries and the builder roundtrip
   property draw from the same space. *)
let service_arrival_gen = Harness.Service_spec.arrival_gen
let service_spec_gen = Harness.Service_spec.gen
let service_spec_arb = Harness.Service_spec.arbitrary
