(* The campaign loop (see runner.mli).

   Determinism contract: the sequence of digest-relevant journal entries
   is a function of the campaign config and the executor alone —
   independent of domain count, chunk boundaries, interruption points
   and the degradation ladder.  The loop guarantees this by processing
   jobs in ascending order, folding each chunk's results in that order,
   and re-evaluating every stop condition per job (never per chunk), so
   an interrupted-and-resumed campaign records exactly the same entry
   prefix as an uninterrupted one. *)

module Builder = Harness.Builder
module Sweep = Harness.Sweep
module Clock = Harness.Clock

exception Stuck of string

type attempt = Finished of Builder.outcome | Wedged of string

type exec =
  guard:(unit -> unit) ->
  Builder.t ->
  seed:int ->
  Harness.Adversity.t ->
  attempt

let default_exec ~guard target ~seed plan =
  let b = Builder.with_plan ~seed target plan in
  match Builder.run ~digest:true ~guard b with
  | o -> Finished o
  | exception Stuck reason -> Wedged reason
  | exception e ->
    (* A crashing run is a finding (quarantine path), not an infra
       error; mirror Builder.run ~catch so the violation text matches
       what exploration would report. *)
    Finished
      { Builder.builder = b;
        trace = None;
        report = None;
        violations = [ "exception: " ^ Printexc.to_string e ];
        digest = "" }

type outcome = {
  config : Campaign.config;
  state : Campaign.state;
  journal : string;
}

(* ------------------------------------------------------------------ *)
(* Guard                                                               *)
(* ------------------------------------------------------------------ *)

(* Event budget is checked on every event; the wall clock only every
   256th (a syscall per event would dominate small runs).  The clock is
   shared across worker domains: Clock.now_ms mutates one immediate int
   field, which cannot tear — a stale clamp at worst delays a deadline
   by one sample, never fires it early. *)
let make_guard ~clock ~event_budget ~deadline_ms () =
  let started = Clock.now_ms clock in
  let events = ref 0 in
  fun () ->
    incr events;
    if !events > event_budget then
      raise
        (Stuck (Printf.sprintf "event budget exceeded (%d events)" event_budget));
    if
      !events land 255 = 0
      && Clock.elapsed_ms clock ~since:started > deadline_ms
    then
      raise
        (Stuck
           (Printf.sprintf "wall deadline exceeded (%d ms at %d events)"
              deadline_ms !events))

(* ------------------------------------------------------------------ *)
(* Filesystem                                                          *)
(* ------------------------------------------------------------------ *)

let rec mkdirs dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdirs (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

(* ------------------------------------------------------------------ *)
(* The loop                                                            *)
(* ------------------------------------------------------------------ *)

let rec take n = function
  | [] -> []
  | _ when n = 0 -> []
  | x :: rest -> x :: take (n - 1) rest

let run_loop ~domains:d0 ~clock ~exec ~stop_after ~on_progress
    (config : Campaign.config) writer state =
  let total = Campaign.total_jobs config in
  let findings_count (s : Campaign.state) = List.length s.Campaign.findings in
  let emit st entry =
    Persist.Journal.append writer (Journal.encode entry);
    Campaign.apply st entry
  in
  let worker ~seed:job =
    let leg = Campaign.leg_of_job config job in
    let plan = Campaign.plan_of_job config job in
    let eseed = Campaign.engine_seed config job in
    let guard =
      make_guard ~clock ~event_budget:config.Campaign.event_budget
        ~deadline_ms:config.Campaign.deadline_ms ()
    in
    match exec ~guard leg.Campaign.target ~seed:eseed plan with
    | Wedged reason -> Journal.Poisoned { job; kind = "stuck"; detail = reason }
    | Finished o when o.Builder.violations = [] ->
      Journal.Run { job; digest = o.Builder.digest }
    | Finished o ->
      Quarantine.quarantine ~artifacts:config.Campaign.artifacts
        ~target:leg.Campaign.target ~job ~seed:eseed ~plan
        ~violations:o.Builder.violations ~digest:o.Builder.digest
  in
  (* Worker-crash context (satellite of Sweep.map_safe): the failing
     job's spec text rides the error payload, so even an
     infrastructure-level crash leaves a reproducible record. *)
  let context ~seed:job =
    let leg = Campaign.leg_of_job config job in
    let plan = Campaign.plan_of_job config job in
    Builder.to_string
      (Builder.with_plan leg.Campaign.target
         ~seed:(Campaign.engine_seed config job)
         plan)
  in
  (* Per-job ladder and stop rules, applied while folding a chunk in job
     order.  Jobs computed after a stop point are discarded unjournaled —
     wasted work, but the recorded stream stays chunk-independent. *)
  let step (st, done_now, stopped) (r : _ Sweep.result) =
    if stopped then (st, done_now, stopped)
    else begin
      let entry =
        match r.Sweep.value with
        | Ok e -> e
        | Error payload ->
          Journal.Poisoned { job = r.Sweep.seed; kind = "worker"; detail = payload }
      in
      let st = emit st entry in
      let done_now = done_now + 1 in
      (* Ladder rung 3: sacrifice budget exhausted — abort. *)
      if st.Campaign.poisoned > config.Campaign.max_poisoned then begin
        let st =
          emit st
            (Journal.Degrade
               { domains = 0;
                 reason =
                   Printf.sprintf "poisoned-seed budget exhausted (%d > %d)"
                     st.Campaign.poisoned config.Campaign.max_poisoned })
        in
        (st, done_now, true)
      end
      else begin
        (* Ladder rung 1: repeated worker failure halves concurrency. *)
        let st =
          if
            st.Campaign.streak >= 2
            && max 1 (d0 lsr st.Campaign.halvings) > 1
          then
            emit st
              (Journal.Degrade
                 { domains = max 1 (d0 lsr (st.Campaign.halvings + 1));
                   reason =
                     Printf.sprintf
                       "%d consecutive poisoned jobs: halving concurrency"
                       st.Campaign.streak })
          else st
        in
        let stopped =
          findings_count st >= config.Campaign.max_findings
          || (match stop_after with Some k -> done_now >= k | None -> false)
        in
        (st, done_now, stopped)
      end
    end
  in
  let rec loop st done_now =
    if st.Campaign.aborted <> None then st
    else if findings_count st >= config.Campaign.max_findings then st
    else if (match stop_after with Some k -> done_now >= k | None -> false)
    then st
    else
      match Campaign.pending config st with
      | [] -> st
      | pending ->
        let domains = max 1 (d0 lsr st.Campaign.halvings) in
        let chunk = take (max 1 (domains * 4)) pending in
        let results =
          Sweep.map_safe ~domains ~context ~seeds:chunk worker
        in
        let st, done_now, stopped =
          List.fold_left step (st, done_now, false) results
        in
        if not stopped then begin
          (match Campaign.pending config st with
           | [] -> ()
           | next :: _ ->
             Persist.Journal.append writer
               (Journal.encode (Journal.Checkpoint { next })));
          on_progress ~done_:(total - List.length (Campaign.pending config st))
            ~total
        end;
        loop st done_now
  in
  loop state 0

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let finish writer journal config state =
  Persist.Journal.close writer;
  Ok { config; state; journal }

let start ?domains ?clock ?(exec = default_exec) ?stop_after
    ?(on_progress = fun ~done_:_ ~total:_ -> ()) ~journal config =
  let domains =
    match domains with Some d -> max 1 d | None -> Sweep.default_domains ()
  in
  let clock = match clock with Some c -> c | None -> Clock.monotonic () in
  mkdirs config.Campaign.artifacts;
  mkdirs (Filename.dirname journal);
  match Persist.Journal.create journal with
  | exception Sys_error e -> Error e
  | writer ->
    Persist.Journal.append writer (Journal.encode (Campaign.config_entry config));
    let state =
      run_loop ~domains ~clock ~exec ~stop_after ~on_progress config writer
        (Campaign.initial config)
    in
    finish writer journal config state

let resume_with ?domains ?clock ?(exec = default_exec) ?stop_after
    ?(on_progress = fun ~done_:_ ~total:_ -> ()) ~journal config =
  let domains =
    match domains with Some d -> max 1 d | None -> Sweep.default_domains ()
  in
  let clock = match clock with Some c -> c | None -> Clock.monotonic () in
  match Persist.Journal.resume journal with
  | Error e -> Error e
  | Ok (contents, writer) ->
    let decoded =
      List.fold_left
        (fun acc payload ->
           match acc with
           | Error _ as e -> e
           | Ok entries ->
             (match Journal.decode payload with
              | Ok e -> Ok (e :: entries)
              | Error e -> Error ("undecodable journal record: " ^ e)))
        (Ok []) contents.Persist.Journal.records
    in
    (match decoded with
     | Error e ->
       Persist.Journal.close writer;
       Error e
     | Ok rev_entries ->
       (match List.rev rev_entries with
        | Journal.Config jc :: entries ->
          (match Campaign.check_config config jc with
           | Error e ->
             Persist.Journal.close writer;
             Error e
           | Ok () ->
             mkdirs config.Campaign.artifacts;
             let state = Campaign.replay config entries in
             let state =
               run_loop ~domains ~clock ~exec ~stop_after ~on_progress config
                 writer state
             in
             finish writer journal config state)
        | _ ->
          Persist.Journal.close writer;
          Error "journal does not start with a config record"))

let resume ?domains ?clock ?(on_progress = fun ~done_:_ ~total:_ -> ())
    ~journal () =
  match Persist.Journal.read journal with
  | Error e -> Error e
  | Ok { Persist.Journal.records = []; _ } ->
    Error "empty journal (no config record)"
  | Ok { Persist.Journal.records = first :: _; _ } ->
    (match Journal.decode first with
     | Ok (Journal.Config jc) ->
       (match Campaign.config_of_journal jc with
        | Error e -> Error e
        | Ok config ->
          resume_with ?domains ?clock ~on_progress ~journal config)
     | Ok _ -> Error "journal does not start with a config record"
     | Error e -> Error ("undecodable config record: " ^ e))
