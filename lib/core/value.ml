(* Consensus values.

   The paper defines EC over binary values and notes the standard lift to
   multivalued consensus [23]; we work directly with a small multivalued
   domain rich enough for every construction in the paper:
   - [Flag]  — the binary case used by the lower-bound machinery (lib/cht);
   - [Num]   — generic multivalued tests;
   - [Seq]   — sequences of application messages, the values proposed by the
               EC-to-ETOB transformation (Algorithm 1);
   - [Vec]   — sequences of values, proposed by the EC-to-EIC transformation
               (Algorithm 6, "decision_i . v"). *)

type t =
  | Flag of bool
  | Num of int
  | Seq of App_msg.t list
  | Vec of t list

let rec equal a b =
  match a, b with
  | Flag x, Flag y -> x = y
  | Num x, Num y -> x = y
  | Seq xs, Seq ys ->
    List.length xs = List.length ys && List.for_all2 App_msg.equal xs ys
  | Vec xs, Vec ys -> List.length xs = List.length ys && List.for_all2 equal xs ys
  | (Flag _ | Num _ | Seq _ | Vec _), _ -> false

let rec compare a b =
  let rank = function Flag _ -> 0 | Num _ -> 1 | Seq _ -> 2 | Vec _ -> 3 in
  match a, b with
  | Flag x, Flag y -> Bool.compare x y
  | Num x, Num y -> Int.compare x y
  | Seq xs, Seq ys -> List.compare App_msg.compare xs ys
  | Vec xs, Vec ys -> List.compare compare xs ys
  | _, _ -> Int.compare (rank a) (rank b)

let rec pp ppf = function
  | Flag b -> Fmt.pf ppf "%b" b
  | Num i -> Fmt.pf ppf "%d" i
  | Seq ms -> App_msg.pp_seq ppf ms
  | Vec vs -> Fmt.pf ppf "(%a)" (Fmt.list ~sep:Fmt.comma pp) vs

(* The text [pp] prints inside a vertical box opened at column 0, where
   the break after each comma of a [Vec] is a newline. *)
let rec add_text b = function
  | Flag x -> Buffer.add_string b (string_of_bool x)
  | Num i -> Buffer.add_string b (string_of_int i)
  | Seq ms -> App_msg.add_seq_text b ms
  | Vec vs ->
    Buffer.add_char b '(';
    List.iteri
      (fun i v ->
         if i > 0 then Buffer.add_string b ",\n";
         add_text b v)
      vs;
    Buffer.add_char b ')'

(* Scalar values embed into message tags for the ETOB-to-EC transformation
   (Algorithm 2 encodes the pair (l, v) inside a broadcast message). *)
let to_tag = function
  | Flag b -> "f:" ^ string_of_bool b
  | Num i -> "n:" ^ string_of_int i
  | Seq _ | Vec _ -> invalid_arg "Value.to_tag: only scalar values embed in tags"

let of_tag s =
  match String.length s with
  | len when len >= 2 && s.[1] = ':' ->
    let body = String.sub s 2 (len - 2) in
    (match s.[0] with
     | 'f' -> Option.map (fun b -> Flag b) (bool_of_string_opt body)
     | 'n' -> Option.map (fun i -> Num i) (int_of_string_opt body)
     | _ -> None)
  | _ -> None
