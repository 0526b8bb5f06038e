(* Allowlist directives read from `(* detlint: ... *)` comments.

   Forms: `(* detlint: sorted <detail> *)` (D3 shorthand) and
   `(* detlint: allow <RULE> <justification> *)`.  An entry suppresses a
   finding of its rule on the same line or the next one. *)

type t

(* Scan one file's source text.  Errors on malformed directives (unknown
   rule, missing justification, unterminated comment) so bad allowlists
   cannot silently disable the gate. *)
val scan : file:string -> string -> (t, string) result

(* [permits t rule ~line] is the justification if an entry covers a
   finding of [rule] at [line]. *)
val permits : t -> Finding.rule -> line:int -> string option
