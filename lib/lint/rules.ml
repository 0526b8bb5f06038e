(* The rule engine: a single parsetree pass (Ast_iterator) plus one
   file-level check (D6).

   Rules are syntactic by design — the pass runs on the unTYPED tree, so
   it needs no build context and lints any .ml file in isolation
   (including the self-test fixtures, which never compile).  Where a rule
   would need types to be exact (D4), it uses a documented syntactic
   over/under-approximation; deliberate exceptions go through the
   allowlist (Allow), never through weakening the rule.

   Adding a rule: extend Finding.rule, give it an id/summary there, add
   its scope predicate and its match arm below (or a file-level check in
   Driver for non-AST properties), add a fixture under
   test/lint_fixtures/ triggering exactly that rule, and regenerate the
   golden report.  DESIGN.md §12 documents the process. *)

type ctx = {
  segs : string list;  (* normalized path segments, for scope tests *)
  strict : bool;  (* fixture mode: every path-scoped rule applies *)
  defines_compare : bool;  (* file let-binds [compare] itself *)
  hashtbl_modules : string list;  (* modules the file binds to Hashtbl.Make *)
  emit : Finding.rule -> Location.t -> string -> unit;
}

let norm_segs path =
  String.split_on_char '/' path
  |> List.concat_map (String.split_on_char '\\')
  |> List.filter (fun s -> s <> "" && s <> "." && s <> "..")

(* [seg_pair segs a b] holds when ".../a/b/..." appears in the path. *)
let rec seg_pair segs a b =
  match segs with
  | x :: (y :: _ as rest) -> (x = a && y = b) || seg_pair rest a b
  | _ -> false

(* --- rule scopes ------------------------------------------------------ *)

(* D1 exemption: the one blessed randomness module. *)
let is_rng_module ctx = seg_pair ctx.segs "simulator" "rng.ml"

(* D2 exemption: benches measure wall-clock on purpose. *)
let in_bench ctx = List.mem "bench" ctx.segs

(* D4 scope: the directories whose values cross the wire or feed traces. *)
let protocol_dirs = [ "core"; "consensus"; "cht" ]

let in_protocol ctx =
  ctx.strict
  || List.exists (fun d -> seg_pair ctx.segs "lib" d) protocol_dirs

(* D5 exemption: the persistence layer owns serialization and may compare
   physical cells (e.g. to detect torn rewrites). *)
let in_persist ctx = seg_pair ctx.segs "lib" "persist"

(* D6 scope: every module under lib/ must ship a sealed interface. *)
let wants_mli ctx = ctx.strict || List.mem "lib" ctx.segs

(* --- the parsetree pass ----------------------------------------------- *)

let loc_of (loc : Location.t) =
  let p = loc.loc_start in
  (p.pos_lnum, p.pos_cnum - p.pos_bol)

let emit ctx rule (loc : Location.t) msg = ctx.emit rule loc msg

let dotted lid = String.concat "." (Longident.flatten lid)

(* D3: the unordered-iteration entry points.  [to_seq*] are included:
   their order is just as unspecified as [iter]'s. *)
let hashtbl_iterators = [ "iter"; "fold"; "to_seq"; "to_seq_keys"; "to_seq_values" ]

let check_ident ctx lid loc =
  match Longident.flatten lid with
  | "Random" :: _ when not (is_rng_module ctx) ->
    emit ctx Finding.D1 loc
      (Printf.sprintf
         "unseeded randomness: `%s` — route all randomness through \
          Simulator.Rng so runs replay from a seed"
         (dotted lid))
  | [ "Sys"; "time" ] | [ "Unix"; "gettimeofday" ] | [ "Unix"; "time" ]
    when not (in_bench ctx) ->
    emit ctx Finding.D2 loc
      (Printf.sprintf
         "wall-clock leakage: `%s` — simulation time is Engine.now; wall \
          clocks belong in bench/ only"
         (dotted lid))
  | [ "Hashtbl"; f ] when List.mem f hashtbl_iterators ->
    emit ctx Finding.D3 loc
      (Printf.sprintf
         "unordered iteration: `Hashtbl.%s` visits bindings in hash order — \
          sort the result (and say so with a `detlint: sorted` comment) or \
          iterate over sorted keys"
         f)
  | [ "Hashtbl"; "hash" ] when in_protocol ctx ->
    emit ctx Finding.D4 loc
      "polymorphic `Hashtbl.hash` at a protocol type — derive an explicit \
       hash from the message fields"
  | [ "Stdlib"; "compare" ] | [ "Pervasives"; "compare" ] when in_protocol ctx ->
    emit ctx Finding.D4 loc
      (Printf.sprintf
         "polymorphic `%s` in a protocol module — use the per-type compare \
          (Int.compare, List.compare, Msg-specific compare)"
         (dotted lid))
  | [ "compare" ] when in_protocol ctx && not ctx.defines_compare ->
    emit ctx Finding.D4 loc
      "bare polymorphic `compare` in a protocol module — use the per-type \
       compare (Int.compare, List.compare, Msg-specific compare)"
  | [ ("==" | "!=") as op ] when not (in_persist ctx) ->
    emit ctx Finding.D5 loc
      (Printf.sprintf
         "physical equality `%s` outside lib/persist — structural state must \
          not depend on sharing"
         op)
  | "Marshal" :: _ when not (in_persist ctx) ->
    emit ctx Finding.D5 loc
      (Printf.sprintf
         "`%s` outside lib/persist — serialization goes through the \
          checksummed Store layer"
         (dotted lid))
  | path ->
    (* D3 through a functor table: [M.f] or [....M.f], with [M] a module
       the file binds to [Hashtbl.Make]/[MakeSeeded] (see
       [hashtbl_functor_modules]). *)
    (match List.rev path with
     | f :: m :: _
       when List.mem f hashtbl_iterators && List.mem m ctx.hashtbl_modules ->
       emit ctx Finding.D3 loc
         (Printf.sprintf
            "unordered iteration: `%s.%s` visits bindings in hash order (`%s` \
             is a Hashtbl.Make table) — sort the result (and say so with a \
             `detlint: sorted` comment) or iterate over sorted keys"
            m f m)
     | _ -> ())

(* D4's equality heuristic: [=]/[<>] is flagged only when an operand is a
   *parameterized* construction — a constructor with an argument, tuple,
   record, array or polymorphic variant literal.  Those comparisons
   recurse structurally into payloads (where vector clocks, closures and
   Id_sets live); nullary shape tests (`= None`, `<> []`) cannot, and
   stay legal. *)
let structured (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_construct (_, Some _)
  | Pexp_variant (_, Some _)
  | Pexp_tuple _ | Pexp_record _ | Pexp_array _ -> true
  | _ -> false

let check_apply ctx (f : Parsetree.expression) args =
  match f.pexp_desc with
  | Pexp_ident { txt = Longident.Lident (("=" | "<>") as op); loc }
    when in_protocol ctx && List.exists (fun (_, a) -> structured a) args ->
    emit ctx Finding.D4 loc
      (Printf.sprintf
         "polymorphic `%s` against a structured literal in a protocol module \
          — compare with the per-type equal instead"
         op)
  | _ -> ()

(* Pre-pass: does the file let-bind [compare] anywhere?  If so, bare
   [compare] below refers (or will after its definition) to the local
   one, and flagging every recursive use would drown the signal.  The
   residual false negative — a bare Stdlib [compare] textually *above*
   the local binding — is accepted and documented. *)
let binds_compare (str : Parsetree.structure) =
  let found = ref false in
  let pat (it : Ast_iterator.iterator) (p : Parsetree.pattern) =
    (match p.ppat_desc with
     | Ppat_var { txt = "compare"; _ } -> found := true
     | _ -> ());
    Ast_iterator.default_iterator.pat it p
  in
  let it = { Ast_iterator.default_iterator with pat } in
  it.structure it str;
  !found

(* Pre-pass for D3: the names of the modules the file binds to a
   [Hashtbl.Make] or [Hashtbl.MakeSeeded] application, at any depth and
   with [let module] too.  Their [iter], [fold] and [to_seq*] visit
   bindings in hash order as [Hashtbl]'s do.  A table module bound in
   another file, or reached through an alias or an [open], is not seen:
   the residual false negative is documented in DESIGN.md §12. *)
let hashtbl_functor_modules (str : Parsetree.structure) =
  let found = ref [] in
  let rec is_functor_app (me : Parsetree.module_expr) =
    match me.pmod_desc with
    | Pmod_constraint (me, _) -> is_functor_app me
    | Pmod_apply ({ pmod_desc = Pmod_ident { txt; _ }; _ }, _) ->
      (match Longident.flatten txt with
       | [ "Hashtbl"; ("Make" | "MakeSeeded") ]
       | [ "Stdlib"; "Hashtbl"; ("Make" | "MakeSeeded") ] -> true
       | _ -> false)
    | _ -> false
  in
  let note (name : string option Location.loc) me =
    match name.txt with
    | Some m when is_functor_app me -> found := m :: !found
    | _ -> ()
  in
  let module_binding it (mb : Parsetree.module_binding) =
    note mb.pmb_name mb.pmb_expr;
    Ast_iterator.default_iterator.module_binding it mb
  in
  let expr it (e : Parsetree.expression) =
    (match e.pexp_desc with
     | Pexp_letmodule (name, me, _) -> note name me
     | _ -> ());
    Ast_iterator.default_iterator.expr it e
  in
  let it = { Ast_iterator.default_iterator with module_binding; expr } in
  it.structure it str;
  !found

let check_structure ctx (str : Parsetree.structure) =
  let expr (it : Ast_iterator.iterator) (e : Parsetree.expression) =
    (match e.pexp_desc with
     | Pexp_ident { txt; loc } -> check_ident ctx txt loc
     | Pexp_apply (f, args) -> check_apply ctx f args
     | _ -> ());
    Ast_iterator.default_iterator.expr it e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.structure it str

(* --- public entry ------------------------------------------------------ *)

let run ~file ~strict ~emit (str : Parsetree.structure) =
  let ctx =
    { segs = norm_segs file;
      strict;
      defines_compare = binds_compare str;
      hashtbl_modules = hashtbl_functor_modules str;
      emit }
  in
  check_structure ctx str

let missing_mli ~file ~strict =
  let ctx =
    { segs = norm_segs file; strict; defines_compare = false;
      hashtbl_modules = []; emit = (fun _ _ _ -> ()) }
  in
  if wants_mli ctx && Filename.check_suffix file ".ml"
     && not (Sys.file_exists (file ^ "i"))
  then
    Some
      (Finding.make ~rule:Finding.D6 ~file ~line:1 ~col:0
         "module has no .mli — every library module ships a sealed interface \
          (rule D6); add one or allowlist with a `detlint: allow D6` comment")
  else None

let location_to_finding ~file rule (loc : Location.t) msg =
  let line, col = loc_of loc in
  Finding.make ~rule ~file ~line ~col msg
