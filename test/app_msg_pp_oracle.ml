(* Test oracle: [App_msg]'s printers as they were written before they
   began handing Format whole runs of text, kept verbatim as the
   reference the buffered printers are checked against (test_core's
   printer properties).  Every id goes through [Fmt.pf] and the
   dependency list through [Fmt.list ~sep:Fmt.comma], whose break hints
   decide where long sequences wrap. *)

open Simulator.Types
open Ec_core

let pp_id ppf (p, sn) = Fmt.pf ppf "%a#%d" pp_proc p sn

let pp ppf (m : App_msg.t) =
  if m.deps = [] then Fmt.pf ppf "%a" pp_id (App_msg.id m)
  else Fmt.pf ppf "%a{<-%a}" pp_id (App_msg.id m) (Fmt.list ~sep:Fmt.comma pp_id) m.deps

let pp_seq ppf ms = Fmt.pf ppf "[%a]" (Fmt.list ~sep:(Fmt.any ";") pp) ms
