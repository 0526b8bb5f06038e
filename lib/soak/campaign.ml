(* Campaign configuration and state machine (see campaign.mli). *)

module Builder = Harness.Builder

type leg = { name : string; target : Builder.t }

type config = {
  legs : leg list;
  budget : int;
  seed : int;
  max_adversities : int;
  event_budget : int;
  deadline_ms : int;
  max_findings : int;
  max_poisoned : int;
  artifacts : string;
}

let default_config ?(artifacts = "_artifacts/soak") legs =
  { legs;
    budget = 200;
    seed = 1;
    max_adversities = 4;
    event_budget = 200_000;
    deadline_ms = 10_000;
    max_findings = 16;
    max_poisoned = 8;
    artifacts }

(* The named legs the CLI accepts.  The two ae legs are the retired
   `make soak` recipe (explore --ae --watchdog [--recovery]); alg5 is
   the bare crash-stop stack for quick campaigns. *)
let catalogue =
  let alg5 = Harness.Stacks.Algorithm_5 in
  [ ("alg5", Builder.template alg5);
    ("ae-watchdog", Builder.template ~ae:true ~watchdog:true alg5);
    ( "ae-watchdog-recovery",
      Builder.template ~ae:true ~watchdog:true ~recovery:true alg5 ) ]

let leg_of_name name =
  match List.assoc_opt name catalogue with
  | Some target -> Ok { name; target }
  | None ->
    Error
      (Printf.sprintf "unknown leg %S (known: %s)" name
         (String.concat ", " (List.map fst catalogue)))

let journal_config c : Journal.config =
  { Journal.legs = List.map (fun l -> l.name) c.legs;
    budget = c.budget;
    seed = c.seed;
    max_adversities = c.max_adversities;
    event_budget = c.event_budget;
    deadline_ms = c.deadline_ms;
    max_findings = c.max_findings;
    max_poisoned = c.max_poisoned;
    artifacts = c.artifacts }

let config_entry c = Journal.Config (journal_config c)

let config_of_journal (j : Journal.config) =
  let rec legs acc = function
    | [] -> Ok (List.rev acc)
    | name :: rest ->
      (match leg_of_name name with
       | Ok leg -> legs (leg :: acc) rest
       | Error _ as e -> e)
  in
  match legs [] j.Journal.legs with
  | Error e -> Error e
  | Ok legs ->
    Ok
      { legs;
        budget = j.Journal.budget;
        seed = j.Journal.seed;
        max_adversities = j.Journal.max_adversities;
        event_budget = j.Journal.event_budget;
        deadline_ms = j.Journal.deadline_ms;
        max_findings = j.Journal.max_findings;
        max_poisoned = j.Journal.max_poisoned;
        artifacts = j.Journal.artifacts }

let check_config c (j : Journal.config) =
  let mine = journal_config c in
  let mismatch what = Error ("journal config mismatch: " ^ what) in
  if not (List.equal String.equal mine.Journal.legs j.Journal.legs) then
    mismatch "legs"
  else if mine.Journal.budget <> j.Journal.budget then mismatch "budget"
  else if mine.Journal.seed <> j.Journal.seed then mismatch "seed"
  else if mine.Journal.max_adversities <> j.Journal.max_adversities then
    mismatch "max-adversities"
  else Ok ()

(* ------------------------------------------------------------------ *)
(* Job geometry                                                        *)
(* ------------------------------------------------------------------ *)

let total_jobs c = List.length c.legs * c.budget
let leg_of_job c job = List.nth c.legs (job / c.budget)
let plan_index c job = job mod c.budget

(* Plan i runs under engine seed (seed + i): [Builder.explore]'s
   pairing, so a soak job is exactly plan i of exploring its leg's
   template and its finding replays like any other. *)
let engine_seed c job = c.seed + plan_index c job

let plan_of_job c job =
  Builder.plan_at (leg_of_job c job).target ~seed:c.seed
    ~max_adversities:c.max_adversities (plan_index c job)

(* ------------------------------------------------------------------ *)
(* State                                                               *)
(* ------------------------------------------------------------------ *)

type recorded = Unrecorded | Clean_run | Found of Journal.entry | Sacrificed

type state = {
  jobs : recorded array;
  clean : int;
  findings : Journal.entry list;
  unshrunk : int;
  poisoned : int;
  streak : int;
  halvings : int;
  aborted : string option;
  digest_lines : string list;
}

let initial c =
  { jobs = Array.make (max 1 (total_jobs c)) Unrecorded;
    clean = 0;
    findings = [];
    unshrunk = 0;
    poisoned = 0;
    streak = 0;
    halvings = 0;
    aborted = None;
    digest_lines = [] }

let record s job r =
  let jobs = Array.copy s.jobs in
  if job >= 0 && job < Array.length jobs then jobs.(job) <- r;
  { s with jobs }

let with_digest s e =
  match Journal.digest_line e with
  | None -> s
  | Some line -> { s with digest_lines = line :: s.digest_lines }

let apply s e =
  let s = with_digest s e in
  match e with
  | Journal.Config _ | Journal.Checkpoint _ -> s
  | Journal.Run { job; _ } ->
    { (record s job Clean_run) with clean = s.clean + 1; streak = 0 }
  | Journal.Finding { job; shrunk_ok; _ } ->
    { (record s job (Found e)) with
      findings = e :: s.findings;
      unshrunk = (s.unshrunk + if shrunk_ok then 0 else 1);
      streak = 0 }
  | Journal.Poisoned { job; _ } ->
    { (record s job Sacrificed) with
      poisoned = s.poisoned + 1; streak = s.streak + 1 }
  | Journal.Degrade { domains; reason } ->
    if domains = 0 then { s with aborted = Some reason }
    else { s with halvings = s.halvings + 1; streak = 0 }

let replay c entries = List.fold_left apply (initial c) entries

let pending c s =
  List.filter
    (fun job -> match s.jobs.(job) with Unrecorded -> true | _ -> false)
    (List.init (total_jobs c) Fun.id)

let coverage_digest s =
  let lines = List.sort String.compare s.digest_lines in
  Digest.to_hex (Digest.string (String.concat "\n" lines))

let finding_list s =
  Array.fold_right
    (fun r acc -> match r with Found e -> e :: acc | _ -> acc)
    s.jobs []
