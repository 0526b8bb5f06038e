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

(* Two last-message-first lists of one length hold the same messages.
   Sharing is only a shortcut: cells that are not shared are compared by
   id, so sequences built separately compare as their lists would. *)
let rec same a b =
  (* detlint: allow D5 sharing is only a shortcut: unshared cells are compared by id *)
  a == b
  || (match a, b with
      | x :: a, y :: b -> App_msg.equal x y && same a b
      | _ -> false)

let equal a b = a.len = b.len && same a.rev b.rev

let is_prefix a b = a.len <= b.len && same a.rev (drop (b.len - a.len) b.rev)

let pp ppf t = App_msg.pp_seq ppf (to_list t)
