(* Test oracle: [Trace.pp] as it was written before the trace text was
   rendered directly into a buffer, kept verbatim (only the record fields
   read through [Trace]'s accessors) as the reference [Trace.text] is
   checked against: the whole trace laid out by Format in one vertical
   box, every revision of every sequence printed whole. *)

open Simulator

let pp ppf t =
  Fmt.pf ppf "@[<v>%a@,(sent=%d delivered=%d dropped=%d steps=%d end=%d)@]"
    (Fmt.list Trace.pp_entry) (Trace.entries t) (Trace.sent t) (Trace.delivered t)
    (Trace.dropped t) (Trace.steps t) (Trace.last_time t)

let text t = Format.asprintf "%a" pp t
