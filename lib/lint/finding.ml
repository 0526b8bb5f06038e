(* Findings: one rule violation at one source location.

   The rule set is the repo's determinism contract (DESIGN.md §12): every
   guarantee downstream — golden byte-identical traces, digest-checked
   replays, WAL replay, AE heal proofs — assumes the simulator is
   deterministic by construction, and each rule bans one way of breaking
   that property silently. *)

type rule =
  | D1 | D2 | D3 | D4 | D5 | D6
  (* The A family is alloclint's (DESIGN.md §17): typedtree-level
     allocation and effect analysis of the hot-path registry, scanned
     from cmt files rather than from the parsetree. *)
  | A1 | A2 | A3 | A4 | A5

let all_rules = [ D1; D2; D3; D4; D5; D6; A1; A2; A3; A4; A5 ]

let rule_id = function
  | D1 -> "D1"
  | D2 -> "D2"
  | D3 -> "D3"
  | D4 -> "D4"
  | D5 -> "D5"
  | D6 -> "D6"
  | A1 -> "A1"
  | A2 -> "A2"
  | A3 -> "A3"
  | A4 -> "A4"
  | A5 -> "A5"

let rule_of_id = function
  | "D1" -> Some D1
  | "D2" -> Some D2
  | "D3" -> Some D3
  | "D4" -> Some D4
  | "D5" -> Some D5
  | "D6" -> Some D6
  | "A1" -> Some A1
  | "A2" -> Some A2
  | "A3" -> Some A3
  | "A4" -> Some A4
  | "A5" -> Some A5
  | _ -> None

type t = { rule : rule; file : string; line : int; col : int; message : string }

let make ~rule ~file ~line ~col message = { rule; file; line; col; message }

(* Total order used everywhere a report is emitted, so output is
   deterministic regardless of scan order. *)
let order a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c else String.compare (rule_id a.rule) (rule_id b.rule)

let pp_human ppf t =
  Format.fprintf ppf "%s:%d:%d: [%s] %s" t.file t.line t.col (rule_id t.rule)
    t.message
