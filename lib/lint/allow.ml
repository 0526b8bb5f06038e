(* Per-file allowlists, read from special comments in the source text.

   Two forms are recognised (one comment per line, scanned textually —
   comments are invisible to the parsetree).  Both are ordinary comments
   whose text begins with "detlint:" right after the opener — the exact
   marker is in [marker] below — and both close on the same line:

     "detlint: sorted <optional detail>"
       shorthand for allowing D3 on this line or the next: the iteration
       result is order-insensitive (commutative accumulation) or sorted
       before anything trace-visible consumes it.

     "detlint: allow <RULE> <justification>"
       allows <RULE> (e.g. D5) on this line or the next.  The
       justification is mandatory: an allowlist entry with no reason is a
       scan error, so every deliberate exception is documented in place.

   A finding at line L is suppressed by an entry at line L (trailing
   comment) or line L-1 (comment above the statement).  Suppressed
   findings are not dropped silently: they are reported in the "allowed"
   section of the JSON report with their justification. *)

type entry = { a_line : int; a_rule : Finding.rule; a_reason : string }
type t = entry list

(* The canonical opener — comment-open, space, "detlint:" — so prose or
   strings that merely mention "detlint:" do not form a directive.
   Assembled from pieces to keep this very file directive-free. *)
let marker = "(" ^ "* detlint:"

(* Index of [sub] in [s] at or after [from], if any.  Naive scan: lines
   are short and the marker is rare. *)
let find_sub s sub from =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  if m = 0 then None else go (max 0 from)

let trim = String.trim

(* Split off the first whitespace-delimited word. *)
let first_word s =
  let s = trim s in
  match String.index_opt s ' ' with
  | None -> (s, "")
  | Some i -> (String.sub s 0 i, trim (String.sub s i (String.length s - i)))

let parse_body ~file ~line body =
  let word, rest = first_word body in
  match word with
  | "sorted" ->
    let reason =
      if rest = "" then "iteration is order-insensitive or sorted before use"
      else rest
    in
    Ok (Some { a_line = line; a_rule = Finding.D3; a_reason = reason })
  | "allow" ->
    let rule_word, reason = first_word rest in
    (match Finding.rule_of_id rule_word with
     | None ->
       Error
         (Printf.sprintf "%s:%d: detlint comment names unknown rule %S" file
            line rule_word)
     | Some rule ->
       if reason = "" then
         Error
           (Printf.sprintf
              "%s:%d: detlint allow %s needs a justification (detlint: allow \
               %s <why>)"
              file line rule_word rule_word)
       else Ok (Some { a_line = line; a_rule = rule; a_reason = reason }))
  | _ ->
    Error
      (Printf.sprintf
         "%s:%d: unrecognised detlint comment %S (expected \"sorted ...\" or \
          \"allow <RULE> <why>\")"
         file line word)

(* Extract the detlint directive from one line, if present.  The comment
   must open and close on the same line; that keeps the scanner trivial
   and the directives greppable. *)
let scan_line ~file ~line s =
  match find_sub s marker 0 with
  | None -> Ok None
  | Some i ->
    let after = i + String.length marker in
    (match find_sub s "*)" after with
     | None ->
       Error
         (Printf.sprintf "%s:%d: detlint comment must close on the same line"
            file line)
     | Some j -> parse_body ~file ~line (String.sub s after (j - after)))

let split_lines s =
  (* String.split_on_char keeps a trailing empty chunk; harmless here. *)
  String.split_on_char '\n' s

let scan ~file source =
  let rec go line acc = function
    | [] -> Ok (List.rev acc)
    | l :: rest ->
      (match scan_line ~file ~line l with
       | Error _ as e -> e
       | Ok None -> go (line + 1) acc rest
       | Ok (Some e) -> go (line + 1) (e :: acc) rest)
  in
  go 1 [] (split_lines source)

let permits t rule ~line =
  let matches e =
    e.a_rule = rule && (e.a_line = line || e.a_line = line - 1)
  in
  match List.find_opt matches t with
  | None -> None
  | Some e -> Some e.a_reason
