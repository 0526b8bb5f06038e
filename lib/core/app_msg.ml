(* Application-level messages broadcast through (E)TOB.

   A message is identified by (origin, sn) — broadcast messages are assumed
   distinct in the paper, and this identification realizes the assumption.
   [deps] is the explicit causal-dependency set C(m) of Section 5: ids of
   messages that causally precede m according to its broadcaster.  [tag] is
   opaque application content. *)

open Simulator.Types

type id = proc_id * int

type t = {
  origin : proc_id;
  sn : int;
  tag : string;
  deps : id list;
}

let compare_id ((p1, sn1) : id) ((p2, sn2) : id) =
  let c = Int.compare p1 p2 in
  if c <> 0 then c else Int.compare sn1 sn2

let make ~origin ~sn ?(tag = "") ?(deps = []) () =
  if sn < 0 then invalid_arg "App_msg.make: negative sequence number";
  { origin; sn; tag; deps = List.sort_uniq compare_id deps }

let id m = (m.origin, m.sn)

(* Messages are equal iff their ids are: content is determined by identity
   within a run. *)
let compare a b = compare_id (id a) (id b)
let equal a b = compare a b = 0

(* The same message in every field: equal ids are not enough where a
   replica restarted without its log reuses an id for other content. *)
let same a b =
  a.origin = b.origin && a.sn = b.sn && String.equal a.tag b.tag
  && List.equal (fun x y -> compare_id x y = 0) a.deps b.deps

(* Printers.  A message prints as "p<origin>#<sn>", followed by
   "{<-<dep>,<dep>...}" when it has dependencies, with a break after each
   comma; a sequence is "[m;m...]" with no breaks of its own.  One writer
   puts a message's text into a buffer, digits included, and the caller
   picks what a break does.  Under Format ([pp], [pp_seq]) the text
   between two breaks goes to Format as one string and the break is
   [pp_print_space]: Format lays out a run of strings by its total length
   alone, so the output is the one printing each piece separately would
   give, at any margin and in any box.  The trace text ([add_text],
   [add_seq_text]) is one vertical box opened at column 0, where every
   break hint is a newline, so there a break is ['\n'] and no Format is
   involved. *)

let add_int = Simulator.Io.add_int

(* Same text as [pp_proc p] then "#<sn>". *)
let add_id b p sn =
  Buffer.add_char b 'p';
  add_int b p;
  Buffer.add_char b '#';
  add_int b sn

let add_msg ~break b m =
  add_id b m.origin m.sn;
  match m.deps with
  | [] -> ()
  | (p, sn) :: deps ->
    Buffer.add_string b "{<-";
    add_id b p sn;
    List.iter
      (fun (p, sn) ->
         Buffer.add_char b ',';
         break b;
         add_id b p sn)
      deps;
    Buffer.add_char b '}'

let flush ppf b =
  Format.pp_print_string ppf (Buffer.contents b);
  Buffer.clear b

let space ppf b =
  flush ppf b;
  Format.pp_print_space ppf ()

let pp_id ppf (p, sn) =
  let b = Buffer.create 16 in
  add_id b p sn;
  flush ppf b

let pp ppf m =
  let b = Buffer.create 32 in
  add_msg ~break:(space ppf) b m;
  flush ppf b

let add_seq ~break b ms =
  Buffer.add_char b '[';
  List.iteri
    (fun i m ->
       if i > 0 then Buffer.add_char b ';';
       add_msg ~break b m)
    ms;
  Buffer.add_char b ']'

let pp_seq ppf ms =
  let b = Buffer.create 256 in
  add_seq ~break:(space ppf) b ms;
  flush ppf b

let newline b = Buffer.add_char b '\n'

let add_text b m = add_msg ~break:newline b m
let add_seq_text b ms = add_seq ~break:newline b ms

module Id_set = Set.Make (struct
    type nonrec t = id
    let compare = compare_id
  end)

module Id_map = Map.Make (struct
    type nonrec t = id
    let compare = compare_id
  end)

module Id_tbl = Hashtbl.Make (struct
    type nonrec t = id
    let equal a b = compare_id a b = 0
    let hash (p, sn) = (p * 65_599) + sn
  end)

let ids_of_seq ms = List.fold_left (fun acc m -> Id_set.add (id m) acc) Id_set.empty ms

(* [is_prefix a b]: sequence [a] is a prefix of sequence [b]. *)
let rec is_prefix a b =
  match a, b with
  | [], _ -> true
  | _, [] -> false
  | x :: a', y :: b' -> equal x y && is_prefix a' b'

(* ------------------------------------------------------------------ *)
(* Wire codec                                                          *)
(* ------------------------------------------------------------------ *)

(* Single-line, space-free-tag encoding for write-ahead-log records (see
   lib/persist and Recoverable): "origin sn hex(tag) deps" where deps is
   "-" or comma-separated "origin.sn" pairs.  The tag is hex-encoded so a
   record is always one line of space-separated fields regardless of
   application content. *)

(* The wire form is written straight into a buffer: digits through
   [add_int], each tag byte as two lowercase hex digits. *)
let hex_digits = "0123456789abcdef"

let add_wire b m =
  add_int b m.origin;
  Buffer.add_char b ' ';
  add_int b m.sn;
  Buffer.add_char b ' ';
  String.iter
    (fun c ->
       Buffer.add_char b hex_digits.[Char.code c lsr 4];
       Buffer.add_char b hex_digits.[Char.code c land 15])
    m.tag;
  Buffer.add_char b ' ';
  match m.deps with
  | [] -> Buffer.add_char b '-'
  | deps ->
    List.iteri
      (fun i (p, sn) ->
         if i > 0 then Buffer.add_char b ',';
         add_int b p;
         Buffer.add_char b '.';
         add_int b sn)
      deps

let add_seq_wire b ms =
  List.iteri
    (fun i m ->
       if i > 0 then Buffer.add_char b '|';
       add_wire b m)
    ms

let to_wire m =
  let b = Buffer.create 32 in
  add_wire b m;
  Buffer.contents b

let string_of_hex h =
  if String.length h mod 2 <> 0 then None
  else
    try
      Some
        (String.init (String.length h / 2) (fun i ->
             Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2))))
    with Failure _ -> None

let dep_of_string s =
  match String.split_on_char '.' s with
  | [ p; sn ] ->
    (match int_of_string_opt p, int_of_string_opt sn with
     | Some p, Some sn when p >= 0 && sn >= 0 -> Some (p, sn)
     | _ -> None)
  | _ -> None

let of_wire line =
  match String.split_on_char ' ' line with
  | [ origin; sn; tag; deps ] ->
    let deps =
      if deps = "-" then Some []
      else
        let parts = String.split_on_char ',' deps in
        let parsed = List.filter_map dep_of_string parts in
        if List.length parsed = List.length parts then Some parsed else None
    in
    (match int_of_string_opt origin, int_of_string_opt sn,
           string_of_hex tag, deps with
     | Some origin, Some sn, Some tag, Some deps
       when origin >= 0 && sn >= 0 ->
       Some (make ~origin ~sn ~tag ~deps ())
     | _ -> None)
  | _ -> None

let seq_to_wire ms =
  let b = Buffer.create 64 in
  add_seq_wire b ms;
  Buffer.contents b

let seq_of_wire line =
  if line = "" then Some []
  else
    let parts = String.split_on_char '|' line in
    let parsed = List.filter_map of_wire parts in
    if List.length parsed = List.length parts then Some parsed else None
