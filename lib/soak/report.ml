(* Campaign summary (see report.mli). *)

type verdict =
  | Clean
  | Findings of int
  | Unshrinkable of int
  | Aborted of string

let verdict (s : Campaign.state) =
  match s.Campaign.aborted with
  | Some reason -> Aborted reason
  | None ->
    if s.Campaign.unshrunk > 0 then Unshrinkable s.Campaign.unshrunk
    else if s.Campaign.findings <> [] then
      Findings (List.length s.Campaign.findings)
    else Clean

let exit_code = function
  | Clean -> 0
  | Findings _ -> 1
  | Unshrinkable _ | Aborted _ -> 2

let per_leg (config : Campaign.config) (s : Campaign.state) =
  let n = List.length config.Campaign.legs in
  let clean = Array.make n 0 and found = Array.make n 0
  and poisoned = Array.make n 0 in
  let bump counts job =
    let k = job / config.Campaign.budget in
    counts.(k) <- counts.(k) + 1
  in
  Array.iteri
    (fun job -> function
       | Campaign.Unrecorded -> ()
       | Campaign.Clean_run -> bump clean job
       | Campaign.Found _ -> bump found job
       | Campaign.Sacrificed -> bump poisoned job)
    s.Campaign.jobs;
  List.mapi
    (fun k (leg : Campaign.leg) ->
       (leg.Campaign.name, clean.(k), found.(k), poisoned.(k)))
    config.Campaign.legs

let pp config ppf (s : Campaign.state) =
  let total = Campaign.total_jobs config in
  let done_ = total - List.length (Campaign.pending config s) in
  Fmt.pf ppf "soak campaign: %d/%d jobs recorded@." done_ total;
  List.iter
    (fun (name, clean, found, poisoned) ->
       Fmt.pf ppf "  leg %-24s clean %-5d findings %-3d poisoned %d@." name
         clean found poisoned)
    (per_leg config s);
  List.iter
    (fun entry ->
       match entry with
       | Journal.Finding { job; violations; shrunk_ok; artifact; _ } ->
         Fmt.pf ppf "  finding job %d%s%s@.    %s@." job
           (if shrunk_ok then "" else " [UNSHRINKABLE]")
           (if artifact = "" then ""
            else
              " -> " ^ Filename.concat config.Campaign.artifacts artifact)
           (match violations with v :: _ -> v | [] -> "(no violation text)")
       | _ -> ())
    (Campaign.finding_list s);
  if s.Campaign.poisoned > 0 then
    Fmt.pf ppf
      "  coverage sacrificed: %d poisoned seed(s) (budget %d), %d ladder \
       rung(s)@."
      s.Campaign.poisoned config.Campaign.max_poisoned s.Campaign.halvings;
  (match s.Campaign.aborted with
   | Some reason -> Fmt.pf ppf "  ABORTED: %s@." reason
   | None -> ());
  Fmt.pf ppf "  coverage digest %s@." (Campaign.coverage_digest s);
  match verdict s with
  | Clean -> Fmt.pf ppf "  verdict: clean@."
  | Findings n -> Fmt.pf ppf "  verdict: %d reproducible finding(s)@." n
  | Unshrinkable n ->
    Fmt.pf ppf "  verdict: %d unshrinkable finding(s) — hard failure@." n
  | Aborted _ -> Fmt.pf ppf "  verdict: aborted — hard failure@."
