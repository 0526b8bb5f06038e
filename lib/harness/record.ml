(* One experiment record: see record.mli. *)

type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of json list
  | Obj of (string * json) list

let rec render = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Int i -> string_of_int i
  | Float f when not (Float.is_finite f) -> "null"
  | Float f when Float.is_integer f || Float.abs f >= 1e4 -> Printf.sprintf "%.0f" f
  | Float f -> Printf.sprintf "%.4f" f
  | String s -> "\"" ^ Persist.Frame.json_escape s ^ "\""
  | List items -> "[" ^ String.concat ", " (List.map render items) ^ "]"
  | Obj fields ->
    let field (k, v) = render (String k) ^ ": " ^ render v in
    "{" ^ String.concat ", " (List.map field fields) ^ "}"

type op = Le | Lt | Ge | Gt | Eq
type gate = { gate : string; measured : json; op : op; bound : json; pass : bool }

let gate gate measured op bound =
  let number = function Int i -> float_of_int i | Float f -> f | _ -> Float.nan in
  let m = number measured and b = number bound in
  let pass =
    match op with
    | Le -> m <= b
    | Lt -> m < b
    | Ge -> m >= b
    | Gt -> m > b
    | Eq -> m = b || measured = bound
  in
  { gate; measured; op; bound; pass }

type t = {
  name : string;
  experiment : string;
  params : (string * json) list;
  rows : json list;
  gates : gate list;
  gc_minor_words : float;
  gc_major_words : float;
}

(* [quick_stat]'s counters move only at minor collections, so collect
   first: otherwise a delta counts whole minor heaps, missing what any
   domain allocated since its last one. *)
let gc_now () =
  Gc.minor ();
  Gc.quick_stat ()

let since = gc_now

let make ~name ~experiment ~since ~params ~rows gates =
  let now = gc_now () in
  { name; experiment; params; rows; gates;
    gc_minor_words = now.minor_words -. since.Gc.minor_words;
    gc_major_words = now.major_words -. since.major_words }

let op_text = function Le -> "<=" | Lt -> "<" | Ge -> ">=" | Gt -> ">" | Eq -> "=="

let describe g =
  Printf.sprintf "%s: %s %s %s" g.gate (render g.measured) (op_text g.op)
    (render g.bound)

(* The top-level fields, rows and gates one per line, so a diff of two
   records shows which row or gate moved. *)
let write dir t =
  List.iter
    (fun g ->
       Printf.printf "  gate %s  %s\n" (describe g) (if g.pass then "ok" else "FAIL"))
    t.gates;
  let lines = function
    | [] -> "[]"
    | items -> "[\n    " ^ String.concat ",\n    " (List.map render items) ^ "\n  ]"
  in
  let gate_json g =
    Obj [ ("gate", String g.gate); ("measured", g.measured);
          ("op", String (op_text g.op)); ("bound", g.bound); ("pass", Bool g.pass) ]
  in
  let failed = List.filter (fun g -> not g.pass) t.gates in
  let fields =
    [ ("experiment", render (String t.experiment)); ("params", render (Obj t.params));
      ("rows", lines t.rows); ("gates", lines (List.map gate_json t.gates));
      ("pass", render (Bool (failed = [])));
      ("gc_minor_words", render (Float t.gc_minor_words));
      ("gc_major_words", render (Float t.gc_major_words)) ]
  in
  let path = Filename.concat dir ("BENCH_" ^ t.name ^ ".json") in
  Out_channel.with_open_text path (fun oc ->
      List.map (fun (k, v) -> "  " ^ render (String k) ^ ": " ^ v) fields
      |> String.concat ",\n"
      |> Printf.fprintf oc "{\n%s\n}\n");
  Printf.printf "  wrote %s\n%!" path;
  if failed <> [] then
    failwith
      (t.experiment ^ ": gate failed: " ^ String.concat "; " (List.map describe failed))
