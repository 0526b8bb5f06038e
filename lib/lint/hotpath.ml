(* The hot-path contract: which functions must be allocation-free, and
   what the analyzer assumes about the stdlib.

   Two sources declare a function hot:

   - the [@@alloc.zero] attribute on its binding (any nesting depth) —
     the in-source form, kept next to the code it constrains;
   - the registry below — the closed list of engine-critical entry
     points (DESIGN.md §17), so the gate cannot be silently weakened by
     deleting an attribute.

   Everything a hot function calls is analyzed transitively when its
   typedtree is available; calls that leave the analyzed universe are
   resolved against the classification tables below, and anything not
   listed is rule A2 (unknown allocation behavior).  The tables are
   deliberately small: they cover what hot code legitimately touches,
   not the whole stdlib — growing them requires arguing the entry here. *)

let attribute_name = "alloc.zero"

(* Function keys are dotted paths as recorded in cmt files with the
   dune wrapping separator normalized: unit "Simulator__Pqueue" binding
   "insert" is "Simulator.Pqueue.insert". *)
let default_registry =
  [ (* event-queue operations: one insert, then one read of the head and
       one removal per simulated event *)
    "Simulator.Pqueue.insert";
    "Simulator.Pqueue.min_prio";
    "Simulator.Pqueue.min_value";
    "Simulator.Pqueue.remove_min";
    (* the engine's event loop (the choice between the pre-run schedule
       and the queue, the deadline check) and its per-event dispatch step *)
    "Simulator.Engine.event_loop";
    "Simulator.Engine.dispatch";
    (* observer fan-out: fired on every protocol-visible event *)
    "Simulator.Listeners.fire";
    (* link delay/fault sampling: once per send *)
    "Simulator.Net.delay_of";
    "Simulator.Net.fault_of";
    (* aggregate-only observability: the long-sweep sink *)
    "Simulator.Sink.samples_push";
    (* deterministic randomness: drawn on every delay sample *)
    "Simulator.Rng.next_int64";
    "Simulator.Rng.next_nonneg";
    "Simulator.Rng.int";
    "Simulator.Rng.in_range";
    (* liveness test: consulted on every delivery and timer *)
    "Simulator.Failures.is_alive" ]

(* --- stdlib classification ------------------------------------------- *)

type builtin_class =
  | Safe  (* known not to allocate *)
  | Allocates of string  (* A1: allocates, with the reason *)
  | Poly of string  (* A3: polymorphic compare/hash, boxes or walks *)
  | Unsafe of string  (* A4: escapes the type system, blinds the pass *)
  | Growable of string  (* A5: growable-structure mutation, may resize *)

(* Non-allocating arithmetic, logic and access primitives.  Comparison
   operators are NOT here: they are classified per call site by operand
   type (immediate types compile to direct comparisons; anything else is
   a polymorphic-compare call, rule A3). *)
let safe_names =
  [ "+"; "-"; "*"; "/"; "mod"; "abs"; "succ"; "pred";
    "land"; "lor"; "lxor"; "lnot"; "lsl"; "lsr"; "asr";
    "not"; "&&"; "||"; "~-"; "~+";
    "ignore"; "fst"; "snd"; "incr"; "decr"; ":="; "!";
    "@@"; "|>";
    "min_int"; "max_int";
    "Array.get"; "Array.set"; "Array.length"; "Array.unsafe_get";
    "Array.unsafe_set"; "Array.blit"; "Array.fill"; "Array.iter";
    "Array.iteri"; "Array.fold_left"; "Array.exists";
    "String.length"; "String.get"; "String.unsafe_get"; "String.iter";
    "String.equal"; "String.compare";
    "Bytes.length"; "Bytes.get"; "Bytes.set"; "Bytes.unsafe_get";
    "Bytes.unsafe_set"; "Bytes.blit"; "Bytes.fill";
    "Char.code"; "Char.equal"; "Char.compare";
    "Int.compare"; "Int.equal"; "Int.max"; "Int.min"; "Int.abs";
    "Bool.not"; "Bool.equal";
    "Int64.to_int"; "Int64.equal"; "Int64.compare";
    "Int32.to_int"; "Int32.equal"; "Int32.compare";
    "Float.to_int"; "Float.equal"; "Float.compare";
    "List.length"; "List.iter"; "List.iteri"; "List.fold_left";
    "List.exists"; "List.for_all"; "List.nth"; "List.memq"; "List.hd";
    "Hashtbl.find"; "Hashtbl.mem"; "Hashtbl.length";
    "Option.is_some"; "Option.is_none"; "Option.get";
    "Sys.opaque_identity"; "Fun.id" ]

(* Known allocators, named precisely so a finding reads as a diagnosis. *)
let allocating_names =
  [ ("ref", "heap-allocates a mutable cell");
    ("raise", "exception raised for control flow on the hot path");
    ("raise_notrace", "exception raised for control flow on the hot path");
    ("failwith", "allocates and raises Failure for control flow");
    ("invalid_arg", "allocates and raises Invalid_argument for control flow");
    ("^", "string concatenation allocates the result");
    ("@", "list append allocates the result spine");
    ("string_of_int", "allocates the rendered string");
    ("float_of_int", "boxes the float result");
    ("Array.make", "allocates a fresh array");
    ("Array.init", "allocates a fresh array");
    ("Array.copy", "allocates a fresh array");
    ("Array.append", "allocates a fresh array");
    ("Array.sub", "allocates a fresh array");
    ("Array.of_list", "allocates a fresh array");
    ("Array.to_list", "allocates the result list");
    ("Array.concat", "allocates a fresh array");
    ("List.map", "allocates the result list");
    ("List.mapi", "allocates the result list");
    ("List.rev", "allocates the reversed list");
    ("List.append", "allocates the result spine");
    ("List.filter", "allocates the result list");
    ("List.init", "allocates the result list");
    ("List.concat", "allocates the result list");
    ("List.sort", "allocates intermediate lists");
    ("List.tl", "keeps the spine live and may allocate via Failure");
    ("String.sub", "allocates the substring");
    ("String.make", "allocates the string");
    ("String.init", "allocates the string");
    ("String.concat", "allocates the result string");
    ("Bytes.create", "allocates the buffer");
    ("Bytes.make", "allocates the buffer");
    ("Bytes.sub", "allocates the copy");
    ("Bytes.to_string", "allocates the string");
    ("Bytes.of_string", "allocates the buffer");
    ("Char.chr", "raises Invalid_argument on out-of-range input");
    ("Option.map", "allocates the Some cell");
    ("Option.some", "allocates the Some cell");
    ("Hashtbl.find_opt", "allocates the option result");
    ("Printf.printf", "format interpretation allocates");
    ("Printf.sprintf", "format interpretation allocates");
    ("Printf.eprintf", "format interpretation allocates");
    ("Printf.ksprintf", "format interpretation allocates");
    ("Format.printf", "format interpretation allocates");
    ("Format.sprintf", "format interpretation allocates");
    ("Format.asprintf", "format interpretation allocates");
    ("Format.fprintf", "format interpretation allocates");
    (* Boxed-number arithmetic: every result is a fresh box. *)
    ("+.", "boxes the float result");
    ("-.", "boxes the float result");
    ("*.", "boxes the float result");
    ("/.", "boxes the float result");
    ("Int64.add", "boxes the int64 result");
    ("Int64.sub", "boxes the int64 result");
    ("Int64.mul", "boxes the int64 result");
    ("Int64.div", "boxes the int64 result");
    ("Int64.rem", "boxes the int64 result");
    ("Int64.neg", "boxes the int64 result");
    ("Int64.logand", "boxes the int64 result");
    ("Int64.logor", "boxes the int64 result");
    ("Int64.logxor", "boxes the int64 result");
    ("Int64.shift_left", "boxes the int64 result");
    ("Int64.shift_right", "boxes the int64 result");
    ("Int64.shift_right_logical", "boxes the int64 result");
    ("Int64.of_int", "boxes the int64 result");
    ("Int32.add", "boxes the int32 result");
    ("Int32.of_int", "boxes the int32 result") ]

let poly_names =
  [ ("compare", "structural compare walks the value and boxes floats");
    ("min", "polymorphic min calls structural compare");
    ("max", "polymorphic max calls structural compare");
    ("Stdlib.compare", "structural compare walks the value and boxes floats");
    ("Hashtbl.hash", "polymorphic hash walks the value");
    ("List.mem", "membership test via structural equality");
    ("List.assoc", "lookup via structural equality");
    ("List.assoc_opt", "lookup via structural equality") ]

let growable_names =
  [ ("Buffer.add_char", "Buffer may grow (doubling copy) on the hot path");
    ("Buffer.add_string", "Buffer may grow (doubling copy) on the hot path");
    ("Buffer.add_substring", "Buffer may grow (doubling copy) on the hot path");
    ("Buffer.create", "allocates a growable buffer");
    ("Buffer.contents", "copies the accumulated bytes out");
    ("Hashtbl.add", "Hashtbl may resize (rehash of every binding)");
    ("Hashtbl.replace", "Hashtbl may resize (rehash of every binding)");
    ("Hashtbl.remove", "Hashtbl mutation on the hot path");
    ("Hashtbl.reset", "Hashtbl mutation on the hot path");
    ("Hashtbl.clear", "Hashtbl mutation on the hot path");
    ("Hashtbl.create", "allocates a growable table");
    ("Queue.add", "Queue cell allocation per element");
    ("Queue.push", "Queue cell allocation per element");
    ("Queue.pop", "Queue mutation on the hot path");
    ("Queue.take", "Queue mutation on the hot path");
    ("Stack.push", "Stack cell allocation per element");
    ("Stack.pop", "Stack mutation on the hot path") ]

(* The comparison operators classified per call site (see alloc_rules):
   listed here so the rule pass can recognize them. *)
let comparison_ops = [ "="; "<>"; "<"; ">"; "<="; ">=" ]

(* Type abbreviations of int used throughout the tree.  The typedtree
   records them unexpanded (expanding would need the serialized cmt
   environments reconstructed), so the comparison-operator check accepts
   them by name alongside the predefined immediate types. *)
let immediate_type_aliases =
  [ "Simulator.Types.time"; "Simulator.Types.proc_id";
    "Types.time"; "Types.proc_id" ]

let is_immediate_alias name = List.mem name immediate_type_aliases

let strip_stdlib name =
  let pfx = "Stdlib." in
  let lp = String.length pfx in
  if String.length name > lp && String.sub name 0 lp = pfx then
    String.sub name lp (String.length name - lp)
  else name

(* [classify name] resolves a fully-qualified external reference
   ("Stdlib.Array.get", "Stdlib.+", "Stdlib.Obj.magic") against the
   tables.  [None] means the name is outside the analyzer's universe:
   the caller reports A2. *)
let classify name =
  let name = strip_stdlib name in
  if String.length name >= 4 && String.sub name 0 4 = "Obj." then
    Some (Unsafe ("`Obj." ^ String.sub name 4 (String.length name - 4)
                  ^ "` defeats the allocation analysis"))
  else if List.mem name safe_names then Some Safe
  else
    match List.assoc_opt name allocating_names with
    | Some why -> Some (Allocates why)
    | None ->
      match List.assoc_opt name poly_names with
      | Some why -> Some (Poly why)
      | None ->
        match List.assoc_opt name growable_names with
        | Some why -> Some (Growable why)
        | None -> None

let is_comparison_op name = List.mem (strip_stdlib name) comparison_ops
