(* ETOB-Stability makes "the new revision extends the old one" the normal
   case after tau, and UpdatePromote only ever extends promote_i.  So the
   messages are kept last-message-first with their length: an extension
   conses onto the old sequence, and equality and the prefix test drop
   the length difference and walk the two lists only until they share
   their tail. *)

type t = {
  rev : App_msg.t list;  (* last message first *)
  len : int;
  mutable ordered : App_msg.t list option;  (* [List.rev rev], once read *)
}

let empty = { rev = []; len = 0; ordered = Some [] }

let of_list l = { rev = List.rev l; len = List.length l; ordered = Some l }

let to_list t =
  match t.ordered with
  | Some l -> l
  | None ->
    let l = List.rev t.rev in
    t.ordered <- Some l;
    l

let length t = t.len

let last t = match t.rev with m :: _ -> Some m | [] -> None

let append t = function
  | [] -> t
  | ms ->
    let rec push rev len = function
      | [] -> { rev; len; ordered = None }
      | m :: ms -> push (m :: rev) (len + 1) ms
    in
    push t.rev t.len ms

let rec drop k l = if k <= 0 then l else match l with [] -> [] | _ :: l -> drop (k - 1) l

let prefix t k =
  if k >= t.len then t
  else if k <= 0 then empty
  else { rev = drop (t.len - k) t.rev; len = k; ordered = None }

(* The messages past position [k], in order: the first [len - k] cells
   of [rev], consed back to front. *)
let after t k =
  let rec take acc i rev =
    if i <= 0 then acc else match rev with [] -> acc | m :: rev -> take (m :: acc) (i - 1) rev
  in
  take [] (t.len - k) t.rev

(* Two last-message-first lists of one length hold the same messages
   under [eq].  Sharing is only a shortcut: cells that are not shared are
   compared with [eq], so sequences built separately compare as their
   lists would. *)
let rec same eq a b =
  (* detlint: allow D5 sharing is only a shortcut: unshared cells are compared by [eq] *)
  a == b
  || (match a, b with
      | x :: a, y :: b -> eq x y && same eq a b
      | _ -> false)

let equal a b = a.len = b.len && same App_msg.equal a.rev b.rev

let starts_with eq a b = a.len <= b.len && same eq a.rev (drop (b.len - a.len) b.rev)

let is_prefix a b = starts_with App_msg.equal a b

let is_text_prefix a b = starts_with App_msg.same_text a b

let is_wire_prefix a b = starts_with App_msg.same_wire a b

(* The trace text of each key's last sequence is kept without its
   brackets.  A sequence that starts with exactly the messages that text
   printed keeps it and appends the rest.  The test is [same_text] (id
   and deps), not [equal]: ids alone can repeat with other deps. *)
type slot = { mutable seq : t; text : Buffer.t }

type writer = (int, slot) Hashtbl.t

let writer () = Hashtbl.create 8

let write w b key s =
  let slot =
    match Hashtbl.find_opt w key with
    | Some slot -> slot
    | None ->
      let slot = { seq = empty; text = Buffer.create 256 } in
      Hashtbl.add w key slot;
      slot
  in
  let kept =
    if is_text_prefix slot.seq s then slot.seq.len
    else (Buffer.clear slot.text; 0)
  in
  List.iteri
    (fun i m ->
       if kept + i > 0 then Buffer.add_char slot.text ';';
       App_msg.add_text slot.text m)
    (after s kept);
  slot.seq <- s;
  Buffer.add_char b '[';
  Buffer.add_buffer b slot.text;
  Buffer.add_char b ']'
