(* A detlint finding: one rule violated at one source location. *)

type rule =
  | D1  (* unseeded randomness outside the simulator RNG *)
  | D2  (* wall-clock leakage outside bench/ *)
  | D3  (* unordered Hashtbl iteration without justification *)
  | D4  (* polymorphic compare/equality/hash at protocol types *)
  | D5  (* Marshal / physical equality outside lib/persist *)
  | D6  (* library module without a sealed .mli *)
  (* alloclint's typedtree rule family (DESIGN.md §17): *)
  | A1  (* heap allocation reachable from a hot-path function *)
  | A2  (* hot call into a function of unknown allocation behavior *)
  | A3  (* polymorphic compare/hash forcing boxing in hot code *)
  | A4  (* Obj.* unsafe escape blinding the analysis *)
  | A5  (* growable structure mutated in hot code *)

val all_rules : rule list
val rule_id : rule -> string
val rule_of_id : string -> rule option

type t = {
  rule : rule;
  file : string;
  line : int;  (* 1-based *)
  col : int;   (* 0-based, compiler convention *)
  message : string;
}

val make : rule:rule -> file:string -> line:int -> col:int -> string -> t

(* Deterministic report order: file, then line, col, rule. *)
val order : t -> t -> int

val pp_human : Format.formatter -> t -> unit
